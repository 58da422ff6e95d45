"""Comparison points the paper evaluates RSN-XNN against.

* :mod:`repro.baselines.charm` -- a model of CHARM (FPGA'23), the
  state-of-the-art Versal accelerator the paper compares latency and
  throughput against (Fig. 18, Table 6b, Table 7).
* :mod:`repro.baselines.overlay` -- the generic layer-serial overlay style
  (von-Neumann, RISC-like ISA) used as the "No Optimize" baseline of Table 9
  and in the Fig. 6 illustration.
* :mod:`repro.baselines.published` -- literature rows quoted in Table 8
  (other FPGA transformer accelerators).
"""

from .charm import CharmModel, CHARM_PUBLISHED
from .overlay import VectorOverlayModel
from .published import TABLE8_ACCELERATORS

__all__ = [
    "CHARM_PUBLISHED",
    "CharmModel",
    "TABLE8_ACCELERATORS",
    "VectorOverlayModel",
]
