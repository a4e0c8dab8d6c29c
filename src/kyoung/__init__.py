"""Exact combinatorics of the k-Young lattice.

k-bounded partitions under the order generated by residue-filtered box
additions, their k-skew diagrams and k-conjugates, the distributive ideals
below rectangles, and the q-series that count them.
"""

from .partitions import (
    Cell,
    KRectangle,
    Parts,
    SkewShape,
    all_k_rectangles,
    conjugate,
    contains,
    is_k_bounded,
    k_bounded_partitions,
    k_conjugate,
    k_skew,
    part_at,
    partition,
    partitions_in_box,
    partitions_of,
    rectangle_k_conjugate,
    residue,
    skew_shape,
    union,
)
from .lattice import (
    HasseDiagram,
    build_ideal,
    check_rectangle_translation,
    covers,
    covers_oracle,
    leq,
)
from .ideals import (
    IdealSpec,
    complement_dual,
    enumerate_ideal,
    gamma_set,
    is_member,
    join,
    meet,
    rank_vector,
    short_rows,
)
from .qpoly import (
    QPoly,
    count_Lk,
    gaussian,
    is_symmetric,
    rank_gen_Lk,
    times_geometric,
)
from .verify import (
    SweepConfig,
    VerificationReport,
    export,
    run_check,
    run_sweep,
    verify_conjecture_gen,
    verify_conjecture_u,
    verify_sieved,
    verify_structure,
)

__version__ = "0.1.0"
