"""2-rank of the class group of real cyclic quartic fields Q(sqrt(n*eps0*sqrt(ell))).

ell is a prime = 5 (mod 8), eps0 the fundamental unit of Q(sqrt(ell)), and n a
squarefree positive integer prime to ell.  The rank is computed two
independent ways (the paper's closed-form case table, and the ambiguous-class
formula through explicit norm-residue character tables) which must agree.
"""

from .classify import Classification, ShapePattern, classify_small_rank
from .errors import (EllNotFiveMod8, EllNotPrime, FactorBudgetExceeded, FieldInputError,
                     InternalCheckError, JobsNotPositive, NNotPositive, NotCoprime,
                     NotQuadraticResidue, NotSquarefree, PeriodBudgetExceeded)
from .ntheory import TwoSquares, factor_squarefree, factorize, is_prime, legendre, quartic_symbol, two_squares
from .quad import FundamentalUnit, SplittingType, fundamental_unit, splitting_type
from .quartic import (Conductor, DefiningPolynomial, FieldInput, NShape, WilliamsForm, conductor,
                      defining_polynomial, to_williams, validate, validate_ell)
from .rank import (CharacterTable, RamProfile, RankResult, character_table, n_shape, r_star,
                   ram_profile, rank_closed, rank_unified)

__version__ = "0.1.0"
