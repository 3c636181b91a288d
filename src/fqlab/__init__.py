"""fqlab: exact set algebra over GF(p^m) and an empirical lab for
shifted-product growth.

The library is organized in layers, each importing only from the layers
listed before it:

- ``finite_field``: field construction, element arithmetic, subfields, cosets
- ``set_algebra``: canonical subsets, sumset/product algebra, energies,
  the structural condition, decided from each proper subfield's largest
  coset-intersection count
- ``decompositions``: popularity pigeonholing, dyadic energy slices,
  popular-point extraction, covering by translates, the two refinement
  stages (the subset searches), the growth proof trace
- ``lemma_oracles``: executable verdicts for the supporting lemmas
- ``survey``: seeded samplers, growth records, exhaustive desk-scale minima,
  CSV/JSON reporting
- ``cli``: the ``fqlab`` command line
"""

from .errors import FqLabError
from .finite_field import (
    FieldSpec,
    SubfieldHandle,
    arith,
    build_field,
    coset_representatives,
    enumerate_subfields,
    parse_descriptor,
)
from .set_algebra import (
    FqSet,
    additive_energy,
    coset_intersection_counts,
    coset_profile,
    dilate,
    multiplicative_energy,
    quotient_set,
    representation_spectrum,
    set_op,
    set_op_size,
    shifted_product,
    translate,
)
from .decompositions import (
    DyadicSlice,
    PopularPoints,
    ProofTrace,
    covering_number,
    dyadic_energy_slice,
    popular_points,
    popularity_subset,
    run_proof_trace,
)
from .lemma_oracles import LEMMA_IDS, LemmaReport, batch_verify
from .survey import (
    CorollaryRecord,
    SurveyConfig,
    SurveyRecord,
    corollary_record,
    exhaustive_min_expander,
    expander_record,
    run_survey,
    sample_set,
)

__version__ = "0.1.0"

__all__ = [
    "FqLabError",
    "FieldSpec",
    "SubfieldHandle",
    "arith",
    "build_field",
    "coset_representatives",
    "enumerate_subfields",
    "parse_descriptor",
    "FqSet",
    "additive_energy",
    "coset_intersection_counts",
    "coset_profile",
    "dilate",
    "multiplicative_energy",
    "quotient_set",
    "representation_spectrum",
    "set_op",
    "set_op_size",
    "shifted_product",
    "translate",
    "DyadicSlice",
    "PopularPoints",
    "ProofTrace",
    "covering_number",
    "dyadic_energy_slice",
    "popular_points",
    "popularity_subset",
    "run_proof_trace",
    "LEMMA_IDS",
    "LemmaReport",
    "batch_verify",
    "CorollaryRecord",
    "SurveyConfig",
    "SurveyRecord",
    "corollary_record",
    "exhaustive_min_expander",
    "expander_record",
    "run_survey",
    "sample_set",
]
