"""Element families: one class and one model per header fact.

``IPFilter``, ``IPClassifier`` and ``Classifier`` are thin ``configure``
methods over :class:`FirstMatch`; the six header setters are
declarations over :class:`SetField`.  Each family has one symbolic
model compiler, so the dataplane and the verifier read the same rows
and the same constant.
"""

import pytest

from repro.click.element import create_element, element_registry
from repro.click.elements.classify import FirstMatch
from repro.click.elements.rewrite import SetField
from repro.common import fields as F
from repro.common.errors import ConfigError
from repro.core import ClientRequest
from repro.symexec.models import model_for

FIRST_MATCH = ("IPFilter", "IPClassifier", "Classifier")
SETTERS = {
    "SetIPAddress": F.IP_DST, "SetIPSrc": F.IP_SRC,
    "SetTPDst": F.TP_DST, "SetTPSrc": F.TP_SRC,
    "SetIPTTL": F.IP_TTL, "SetIPTOS": F.IP_TOS,
}
EXECUTORS = ("push", "push_batch", "push_columns")


class TestOneClassPerFamily:
    def test_first_match_tables_only_configure(self):
        for name in FIRST_MATCH:
            cls = element_registry()[name]
            assert issubclass(cls, FirstMatch)
            assert not set(EXECUTORS) & set(vars(cls)), name

    def test_setters_are_declarations(self):
        for name, field in SETTERS.items():
            cls = element_registry()[name]
            assert issubclass(cls, SetField)
            assert cls.field == field
            assert not set(EXECUTORS + ("configure",)) & set(vars(cls))

    def test_filter_rows(self):
        f = create_element("IPFilter", "f", ["deny tcp", "allow all"])
        assert [out for _spec, out in f.rows] == [None, 0]

    def test_classifier_rows(self):
        c = create_element("IPClassifier", "c", ["tcp", "udp", "-"])
        assert [out for _spec, out in c.rows] == [0, 1, 2]
        assert c.column_fields == (F.IP_PROTO,)

    def test_one_model_compiler_per_family(self):
        assert len({model_for(name) for name in FIRST_MATCH}) == 1
        assert len({model_for(name) for name in SETTERS}) == 1


#: Constants outside the written field's range, per setter.
OUT_OF_RANGE = (
    ("SetTPDst", "70000"), ("SetTPDst", "-1"), ("SetTPDst", "65536"),
    ("SetTPSrc", "70000"), ("SetTPSrc", "-1"),
    ("SetIPTOS", "256"), ("SetIPTOS", "-1"),
    ("SetIPTTL", "0"), ("SetIPTTL", "256"),
)
#: The edges of each range, which stay valid.
EDGES = (
    ("SetTPDst", "0"), ("SetTPDst", "65535"), ("SetTPSrc", "65535"),
    ("SetIPTOS", "0"), ("SetIPTOS", "255"),
    ("SetIPTTL", "1"), ("SetIPTTL", "255"),
    ("SetIPAddress", "255.255.255.255"), ("SetIPSrc", "0.0.0.0"),
)


class TestSetterRange:
    @pytest.mark.parametrize("name, arg", OUT_OF_RANGE)
    def test_out_of_range_constant_is_a_config_error(self, name, arg):
        with pytest.raises(ConfigError, match="outside"):
            create_element(name, "s", [arg])

    @pytest.mark.parametrize("name, arg", EDGES)
    def test_range_edges_are_accepted(self, name, arg):
        setter = create_element(name, "s", [arg])
        assert setter.column_fields == (SETTERS[name],)

    @pytest.mark.parametrize("arg", ["70000", "-1"])
    def test_controller_refuses_an_out_of_range_port(self, controller, arg):
        result = controller.request(ClientRequest(
            client_id="x",
            config_source=(
                "FromNetfront() -> SetTPDst(%s) -> ToNetfront();" % arg
            ),
        ))
        assert not result.accepted
        assert "bad configuration" in result.reason
