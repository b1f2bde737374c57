"""Exact-arithmetic multiset rings, pseudocharacters, and determinants.

The package is organized in layers:

* :mod:`pseudodet.rings`      -- exact scalars (rational, mod m, polynomial)
* :mod:`pseudodet.elements`   -- matrices, free words, group algebras
* :mod:`pseudodet.multisets`  -- the multiset ring of a semigroup
* :mod:`pseudodet.pseudochar` -- central functions, recursive forms,
  determinants and characteristic polynomials
* :mod:`pseudodet.verify`     -- seeded property suites with reports
* :mod:`pseudodet.cli`        -- the ``pseudodet`` command
"""

from .elements import (GroupAlgebraElement, GroupTable, LetterHom, Matrix,
                       Word, word)
from .errors import (BudgetExceededError, CapExceededError, ConfigError,
                     GroupTableError, MismatchError, NotInvertibleError,
                     PseudodetError, UnitlessError, UnknownLetterError)
from .multisets import (DEFAULT_BUDGET, FormalSum, Multiset, formal_product,
                        multiset_product, partial_bijection_count,
                        partial_bijections, product_along)
from .pseudochar import (CentralFunction, CharPoly, char_poly,
                         char_poly_interpolated, check_pseudocharacter,
                         cycle_sum_form, degree_product_check, determinant,
                         form_on_sum, identity_padding_check, literal_form,
                         matrix_trace, multiplicativity_check,
                         product_formula_check, recursive_form, regular_trace)
from .rings import (ModRing, Poly, PolyRing, QPOLY, QQ, RationalRing, Ring,
                    ring_from_spec)
from .verify import (SplitMix64, SuiteConfig, SuiteReport, char_poly_leibniz,
                     default_all_configs, leibniz_det, random_matrix,
                     random_word, run_suite, substream)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
