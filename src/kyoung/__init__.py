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
    degree,
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
    sum_parts,
    to_core,
    union,
)
from .lattice import (
    HasseDiagram,
    RectangleTranslationWitness,
    build_ideal,
    check_rectangle_translation,
    covers,
    covers_oracle,
    leq,
)
from .ideals import (
    IdealSpec,
    RankVector,
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
    conjecture_sum,
    count_Lk,
    cyclotomic_check,
    cyclotomic_polynomial,
    gaussian,
    is_symmetric,
    is_unimodal,
    rank_gen_Lk,
    rank_gen_gamma,
    sieved_sums,
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
