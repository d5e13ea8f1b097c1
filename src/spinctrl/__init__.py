"""Subspace controllability and dynamical symmetries of XXZ spin networks
with local Z-controls."""

from .analytic import (BetheEnumeration, BetheSolution, bethe_symmetric_kappas,
                       half_chain_witness, heisenberg_controllable,
                       star_controllable_conjecture, xx_controllable,
                       xx_symmetry_predicate)
from .hamiltonian import (SubspaceHamiltonian, control_matrix,
                          second_excitation_chain, single_excitation)
from .lie import ControllabilityVerdict, LieClosureResult, lie_closure, verdict
from .network import (InvalidNetworkError, NetworkSpec, StarDescriptor, make_chain,
                      make_star, parse_network, serialize_network)
from .report import AnalysisReport, TableReport, analyze, reproduce_table
from .symmetry import (AnticommutantResult, AutomorphismGenerators, BrightStructure,
                       CommutantBasis, DarkStateSet, DecompositionReport,
                       InternalSymmetryCertificate, bright_structure,
                       certify_internal_symmetry, commutant, dark_states,
                       decompose, graph_automorphisms, internal_symmetry)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport", "AnticommutantResult", "AutomorphismGenerators",
    "BetheEnumeration", "BetheSolution", "BrightStructure",
    "CommutantBasis", "ControllabilityVerdict", "DarkStateSet",
    "DecompositionReport", "InternalSymmetryCertificate", "InvalidNetworkError",
    "LieClosureResult",
    "NetworkSpec", "StarDescriptor", "SubspaceHamiltonian",
    "TableReport", "analyze", "bethe_symmetric_kappas", "bright_structure",
    "certify_internal_symmetry",
    "commutant", "control_matrix", "dark_states",
    "decompose", "graph_automorphisms", "half_chain_witness",
    "heisenberg_controllable", "internal_symmetry",
    "lie_closure", "make_chain", "make_star", "parse_network",
    "reproduce_table",
    "second_excitation_chain", "serialize_network", "single_excitation",
    "star_controllable_conjecture",
    "verdict", "xx_controllable", "xx_symmetry_predicate",
]
