"""rangesynth: synthesize and verify small-depth proof-system circuits.

A proof system for a language L is a circuit family whose *range* at each
length is exactly the length-n slice of L: every input ("proof") evaluates
to a member word, and every member word has a preimage.  This package
compiles automata, counting predicates, graph properties, and NP verifiers
into such circuits, provides the closure combinators, and ships a harness
that checks soundness, completeness, and the structural bounds (depth,
alternations, output locality) the constructions promise.
"""

from .circuit import (
    Circuit,
    CircuitBuilder,
    CircuitMetrics,
    circuit_range,
    eval_batch,
    eval_circuit,
    metrics,
    parse,
    serialize,
    table_to_subcircuit,
)
from .combinators import (
    concat_finite,
    finite_language,
    inverse_morphism,
    morphism,
    reverse,
    union,
    upclose,
)
from .counting import CountLayout, synth_exact_count, synth_threshold, witness_count
from .graphs import (
    TriangleBasis,
    decompose_cycles,
    synth_cycles,
    synth_unreach,
    synth_ustconn,
    triangle_basis,
    witness_graph,
)
from .languages import (
    Combined,
    Cycles,
    Dfa,
    ExactCount,
    Nfa,
    Regular,
    Threshold,
    UnReach,
    USTConn,
    enumerate_slice,
    member,
    member_batch,
    parse_dfa,
    sample_members,
)
from .npsys import (
    VerifierCircuit,
    pad_language,
    parse_verifier,
    serialize_verifier,
    synth_co_sac,
    synth_sac,
    verifier_member,
    witness_np,
)
from .regular import (
    LayeredBp,
    ProofLayout,
    parse_bp,
    synth_regular,
    synth_structured,
    unroll,
    witness_bp,
    witness_regular,
)
from .verify import Report, check_completeness, check_soundness, locality_audit

__version__ = "0.1.0"
