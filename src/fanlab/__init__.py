"""fanlab: a workbench for oracle register machines, layered Kripke oracles,
Kleene trees, level censuses, and uniform-bound extraction from bar realizers.
"""

from .machine import (
    Answer,
    BLOCK_ALL,
    Blocked,
    Converged,
    Decjz,
    DeciderPartial,
    FnOracle,
    Halt,
    Inc,
    Jmp,
    Oracle,
    OutOfFuel,
    Query,
    QueryTrace,
    RunResult,
    curry,
    curry_overhead,
    decode_program,
    encode_program,
    evaluate,
    pair,
    run,
    run_decider,
    unpair,
)
from .kripke import (
    Family,
    GroundReal,
    LayeredOracle,
    Node,
    check_slice_access,
    layered_answer,
    node_oracle,
    parse_node,
)
from .trees import (
    BranchDecider,
    DecidableTree,
    IncoherentBranch,
    bits_to_code,
    code_to_bits,
    full_scan_count,
    kleene_tree,
    level_census,
    levels,
    wwkl_witness,
)
from .fan import (
    BarRealizer,
    CoverSet,
    ExtractionExhausted,
    PATH_SLICE,
    PathOracle,
    RealizerFailed,
    RoutedOracle,
    UniformBound,
    apply_realizer_to_path,
    extract_bound,
    verify_uniform_bound,
)

__version__ = "0.1.0"
