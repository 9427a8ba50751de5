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
    is_double_cyclic,
    min_distance,
    parse_poly,
    self_dual_transfer,
)
from z2ucodes.codewords import closure_of_spec, word_texts
from z2ucodes.gf2poly import bit_reverse
from z2ucodes.gray import (
    format_binary_code,
    gray_block_packed,
    gray_interleaved_packed,
    lee_weight_packed,
)
from z2ucodes.showcase import build_report

# The word (1|1+u,u) packed: bit 0 holds a = 1, bits 1-2 the 1-parts
# p = (1, 0) and bits 3-4 the u-parts q = (1, 1) of its two symbols.  An
# image is printed from its first coordinate, bit 0.
c = 0b11011
print("word:", word_texts([c], 1, 2)[0], " lee weight:", lee_weight_packed(c, 1, 2))
print("interleaved image:", f"{bit_reverse(gray_interleaved_packed(c, 1, 2), 5):05b}")
print("block image:      ", f"{bit_reverse(gray_block_packed(c, 1, 2), 5):05b}")

spec = CodeSpec(2, 3, 1, parse_poly("1+x^2"), parse_poly("1+x"), parse_poly("1+x"))
code = closure_of_spec(spec)
img = gray_image(code, "block")
print("binary image: n =", img.n, " k =", img.rank, " d =", min_distance(code))
print("double cyclic in block layout:", is_double_cyclic(img, 2, 6))

# Golden export format
print(format_binary_code(img, "block").splitlines()[0])

# A self-dual code transfers to a binary self-dual image
sd = closure_of_spec(CodeSpec(2, 1, 2, parse_poly("1+x"), 0, parse_poly("1")))
print("self-dual transfer:", self_dual_transfer(sd).image_self_dual)

# The three documented codes with claimed optimal images, measured:
print()
print(build_report())
