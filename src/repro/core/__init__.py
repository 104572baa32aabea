"""The In-Net architecture core (Sections 2 and 4).

This package is the paper's primary contribution:

* :mod:`repro.core.security` -- the security rules of Section 2.1/4.4
  (anti-spoofing + default-off with explicit/implicit authorization)
  checked by symbolic execution, with the three-way verdict
  allow / sandbox / reject,
* :mod:`repro.core.requests` -- client requests: a Click configuration
  (or a stock module) plus reach requirements, submitted under a trust
  role (third-party, operator customer, or the operator itself),
* :mod:`repro.core.catalog` -- canonical configurations for the Table 1
  middlebox functionalities and the stock processing modules,
* :mod:`repro.core.controller` -- the controller that statically
  verifies each request on a network snapshot, picks a compliant
  platform, deploys (wrapping with ChangeEnforcer sandboxes when
  needed), and installs forwarding state.
"""

from repro.core.accounting import Invoice, Ledger, Tariff
from repro.core.cache import (
    CacheStats,
    CachingSecurityAnalyzer,
    LRUCache,
)
from repro.core.api import (
    request_from_json,
    request_to_json,
    result_to_json,
)
from repro.core.catalog import (
    STOCK_MODULES,
    TABLE1_FUNCTIONALITIES,
    catalog_config,
    stock_module_config,
)
from repro.core.federation import FederatedDeployment, Federation
from repro.core.controller import (
    Controller,
    DeploymentResult,
    MigrationResult,
)
from repro.core.requests import (
    ROLE_CLIENT,
    ROLE_OPERATOR,
    ROLE_THIRD_PARTY,
    ClientRequest,
)
from repro.core.security import (
    VERDICT_ALLOW,
    VERDICT_REJECT,
    VERDICT_SANDBOX,
    SecurityAnalyzer,
    SecurityReport,
)

__all__ = [
    "Controller",
    "DeploymentResult",
    "MigrationResult",
    "Federation",
    "FederatedDeployment",
    "Ledger",
    "Tariff",
    "Invoice",
    "request_to_json",
    "request_from_json",
    "result_to_json",
    "ClientRequest",
    "ROLE_THIRD_PARTY",
    "ROLE_CLIENT",
    "ROLE_OPERATOR",
    "SecurityAnalyzer",
    "SecurityReport",
    "CachingSecurityAnalyzer",
    "CacheStats",
    "LRUCache",
    "VERDICT_ALLOW",
    "VERDICT_SANDBOX",
    "VERDICT_REJECT",
    "catalog_config",
    "stock_module_config",
    "TABLE1_FUNCTIONALITIES",
    "STOCK_MODULES",
]
