"""
Gray images
===========

Each R symbol x + u*y maps to the bit pair (y, x+y); a whole codeword
maps to a binary word of length alpha + 2*beta.  The map preserves
distances (Lee on the left, Hamming on the right) and sends these codes
to binary double cyclic codes in the block layout.
"""

from z2ucodes import (
    CodeSpec,
    gray_image,
    gray_map,
    is_double_cyclic,
    lee_weight,
    min_distance,
    parse_poly,
    self_dual_transfer,
)
from z2ucodes.codewords import Codeword, closure_of_spec
from z2ucodes.gf2poly import ZERO
from z2ucodes.gray import format_binary_code
from z2ucodes.ringr import R_ONE_U, R_U
from z2ucodes.showcase import build_report

c = Codeword((1,), (R_ONE_U, R_U))
print("word:", c, " lee weight:", lee_weight(c))
print("interleaved image:", gray_map(c, "interleaved"))
print("block image:      ", gray_map(c, "block"))

spec = CodeSpec(2, 3, 1, parse_poly("1+x^2"), parse_poly("1+x"), parse_poly("1+x"))
code = closure_of_spec(spec)
img = gray_image(code, "block")
print("binary image: n =", img.n, " k =", img.rank, " d =", min_distance(code))
print("double cyclic in block layout:", is_double_cyclic(img, 2, 6))

# Golden export format
print(format_binary_code(img, "block").splitlines()[0])

# A self-dual code transfers to a binary self-dual image
sd = closure_of_spec(CodeSpec(2, 1, 2, parse_poly("1+x"), ZERO, parse_poly("1")))
print("self-dual transfer:", self_dual_transfer(sd).image_self_dual)

# The three documented codes with claimed optimal images, measured:
print()
print(build_report())
