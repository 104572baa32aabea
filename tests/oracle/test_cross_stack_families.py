"""The cross-stack oracle on the first-match tables and the setters.

``IPFilter``, ``IPClassifier`` and ``Classifier`` share one first-match
table, and the six ``Set*`` elements one constant writer; each family
has one symbolic model.  Here every packet of a small universe that
straddles every constant runs through the scalar, batch and column
executors, and :func:`cross_stack.check` holds each egress to the
verifier's paths in both directions.
"""

import pytest

from repro.click import columnar
from repro.common import fields as F
from repro.common.addr import parse_ip

from cross_stack import check, straddle, universe


@pytest.fixture(autouse=True)
def _force_columnar(monkeypatch):
    """Lift every batch, however small, into columns."""
    monkeypatch.setattr(columnar, "MIN_BATCH", 1)


def _config(element: str, sinks: int = 1) -> str:
    lines = ["src :: FromNetfront();", "dut :: %s;" % element, "src -> dut;"]
    for port in range(sinks):
        lines.append("dut[%d] -> out%d :: ToNetfront();" % (port, port))
    return "\n".join(lines)


NET = (parse_ip("10.0.0.0"), parse_ip("10.0.0.3"))
HOST = parse_ip("192.0.2.1")
PROTOS = straddle(F.IP_PROTO, F.ICMP, F.TCP, F.UDP)

TABLES = {
    # Deny before allow, and rules that overlap: a denied source is
    # dropped even for udp/53, ports 22-23 are denied inside "allow
    # tcp", and the host rule catches what the others left.
    "IPFilter": (
        "IPFilter(deny src net 10.0.0.0/30, allow udp dst port 53,"
        " deny tcp dst port 22-23, allow tcp, allow dst host 192.0.2.1)",
        1,
        universe(
            ip_src=straddle(F.IP_SRC, NET),
            ip_proto=PROTOS,
            tp_dst=straddle(F.TP_DST, 53, (22, 23)),
            ip_dst=straddle(F.IP_DST, HOST),
        ),
    ),
    "IPClassifier-": (
        "IPClassifier(tcp dst port 80, udp, src net 10.0.0.0/30, -)",
        4,
        universe(
            ip_src=straddle(F.IP_SRC, NET),
            ip_proto=PROTOS,
            tp_dst=straddle(F.TP_DST, 80),
        ),
    ),
    "IPClassifier": (
        "IPClassifier(tcp dst port 80, udp src port 1000-1001)",
        2,
        universe(
            ip_proto=PROTOS,
            tp_src=straddle(F.TP_SRC, (1000, 1001)),
            tp_dst=straddle(F.TP_DST, 80),
        ),
    ),
    "Classifier-": (
        "Classifier(icmp, ttl 1, tos 46, -)",
        4,
        universe(
            ip_proto=PROTOS,
            ip_ttl=straddle(F.IP_TTL, 1),
            ip_tos=straddle(F.IP_TOS, 46),
        ),
    ),
    "Classifier": (
        "Classifier(icmp, tcp)",
        2,
        universe(ip_proto=PROTOS),
    ),
}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_first_match_tables(name):
    element, sinks, headers = TABLES[name]
    report = check(_config(element, sinks), headers)
    assert report.paths >= sinks
    if element.endswith("-)"):  # the catch-all leaves nothing behind
        assert report.egress == report.packets
    else:
        assert 0 < report.egress < report.packets


#: Each setter writes a constant at (or next to) the edge of its field.
SETTERS = (
    ("SetIPAddress", "192.0.2.7", F.IP_DST, parse_ip("192.0.2.7")),
    ("SetIPSrc", "0.0.0.0", F.IP_SRC, 0),
    ("SetTPDst", "65535", F.TP_DST, 65535),
    ("SetTPSrc", "0", F.TP_SRC, 0),
    ("SetIPTTL", "1", F.IP_TTL, 1),
    ("SetIPTTL", "255", F.IP_TTL, 255),
    ("SetIPTOS", "255", F.IP_TOS, 255),
    ("SetIPTOS", "0", F.IP_TOS, 0),
)


@pytest.mark.parametrize(
    "element, arg, field, value", SETTERS,
    ids=["%s(%s)" % (element, arg) for element, arg, _f, _v in SETTERS],
)
def test_setters(element, arg, field, value):
    # The written field straddles the constant on the way in; a second
    # field shows the setter leaves the rest of the header alone.
    other = F.TP_SRC if field != F.TP_SRC else F.TP_DST
    headers = universe(**{
        field: straddle(field, value),
        other: straddle(other, 7),
    })
    report = check(_config("%s(%s)" % (element, arg)), headers)
    assert report.egress == report.packets
    assert report.paths == 1
