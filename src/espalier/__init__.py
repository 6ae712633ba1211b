"""Band-generator braid calculus for espalier-positive links.

Submodules:
    braid       band words, parsing, closure components, edge tallies
    trees       espaliers (non-crossing spanning trees) and classification
    garside     dual Garside normal form, word problem, staircase detection
    surface     braided Seifert surface accounting and homogenization
    cabling     staircase representatives for (p,q)-cables
    compose     connected sums of words and espaliers
    laurent     exact integer Laurent polynomials and their list kernels
    invariants  reduced Burau, Alexander polynomials
    diagram     the visual-primeness quick test
    table       the knot table's rows and their end-to-end checks
    cli         the `espalier` command-line front end
"""

from .braid import BandGenerator, BraidWord, format_braid, parse_braid
from .cabling import CableSpec, cable_staircase
from .compose import connected_sum_words, espalier_sum
from .diagram import visual_primeness_report
from .garside import (
    NormalForm,
    delta,
    is_staircase,
    left_normal_form,
    words_equal,
)
from .invariants import (
    alexander_of_closure,
    reduced_burau,
    satellite_alexander,
    torus_alexander,
)
from .laurent import LaurentPolynomial
from .surface import (
    euler_characteristic,
    genus_of_knot_closure,
    homogenize,
    murasugi_decomposition,
)
from .trees import (
    Classification,
    Espalier,
    Kind,
    classify,
    enumerate_espaliers,
    find_espalier,
    new_espalier,
    parse_espalier,
)

__version__ = "0.1.0"
