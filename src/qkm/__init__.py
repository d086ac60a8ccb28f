"""qkm: exact computations with quantized generalized Kac-Moody algebras.

Starting from any symmetrizable rational matrix, the package constructs the
realization and invariant form, the Drinfeld pairing on the free algebra
over the raising generators together with its per-degree kernels (the
relation ideal of the quantized Borel), the classical counterparts and root
multiplicities, category-O Verma and irreducible modules on both sides,
truncated R-matrices with exact Yang-Baxter verification, and the braid
monodromy of the Knizhnik-Zamolodchikov connection at numeric hbar for the
comparison with the braiding built from the R-matrix.
"""

from .cartan import (
    CartanDatum,
    NotSymmetrizableError,
    Weight,
    build_realization,
    session_denominator,
    symmetrize,
    weight_form,
)
from .classical import (
    CasimirEngine,
    CasimirTensor,
    PolyN,
    ShapovalovForm,
    root_multiplicities,
    weyl_kac_character,
    weyl_kac_multiplicities,
)
from .freealg import (
    ResourceLimitError,
    TruncationError,
    enumerate_words,
    multinomial,
    word_degree,
    word_string,
)
from .kz import (
    DiagonalApproachError,
    KZSystem,
    MonodromyReport,
    braid_monodromy,
    build_kz_system,
    drinfeld_kohno_compare,
    kz_transport,
)
from .qmodules import (
    CharacterComparison,
    WeightModule,
    character,
    check_module_relations,
    classical_module,
    compare_characters,
    contravariant_form,
    irreducible,
    radical_dimensions,
    verma,
)
from .qpairing import (
    DrinfeldPairing,
    GramBlock,
    KernelBasis,
    NotApplicableError,
    degrees_upto,
)
from .rmatrix import (
    BraidOperator,
    DualBasisPair,
    TruncatedR,
    YangBaxterReport,
    check_ybe,
    dual_bases,
)
from .scalars import (
    DenominatorError,
    LaurentPoly,
    PoleError,
    QScalar,
    evaluate_numeric,
    q_factorial,
    q_integer,
    q_power,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
