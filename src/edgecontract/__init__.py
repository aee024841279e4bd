"""Multi-dimensional incentive contract design for edge resource allocation.

Subpackages:

* :mod:`edgecontract.econ` — utility mathematics and domain types
* :mod:`edgecontract.feasibility` — IR/IC checking and minimal-reward recovery
* :mod:`edgecontract.solver` — exact (bounded) monotone grid search
* :mod:`edgecontract.nn` — minimal MLP with analytic gradients
* :mod:`edgecontract.diffusion` — denoising-diffusion contract policy
* :mod:`edgecontract.scenario` / :mod:`edgecontract.harness` — experiments
"""

from .econ import (
    ChannelParams,
    ContractMenu,
    HMDParams,
    PTParams,
    SensitivityParams,
    TypeGrid,
)

__all__ = [
    "TypeGrid",
    "ContractMenu",
    "ChannelParams",
    "HMDParams",
    "SensitivityParams",
    "PTParams",
]

__version__ = "0.1.0"
