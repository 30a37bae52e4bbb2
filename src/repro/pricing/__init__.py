"""Memory pricing (Sections II-D, III-D).

* :mod:`~repro.pricing.vendors` — vendor bundle models: fixed memory sizes
  in 128 MB multiples billed per unit of time (Lambda per 1 ms).
* :mod:`~repro.pricing.billing` — tiered billing on top of Equation 1:
  the dynamically reduced plan a platform can offer once part of a
  function's memory lives in the cheap tier.
"""

from .vendors import VendorPlan, AWS_LAMBDA, bundle_mb
from .billing import TieredBill, bill_invocation

__all__ = [
    "VendorPlan",
    "AWS_LAMBDA",
    "bundle_mb",
    "TieredBill",
    "bill_invocation",
]
