"""Document data is written by one %-format over the whole array.

The per-number encoder it replaces is kept here as the oracle: the layout
(one ``[re,im]`` pair per entry, a line per row and per block) and every
digit must be the same, so documents stay byte-identical.
"""

import sys

import numpy as np
import pytest

from aapt.documents import MatrixDocument, _encode_data, dumps, format_number


def loop_encode(arr):
    """The encoder as one format_number call per real and imaginary part."""
    if arr.ndim == 1:
        pairs = ",".join(f"[{format_number(z.real)},{format_number(z.imag)}]" for z in arr)
        return f"[{pairs}]"
    inner = ",\n".join(loop_encode(sub) for sub in arr)
    return f"[\n{inner}\n]"


SPECIAL = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
    sys.float_info.max, -sys.float_info.max, 1.0, -1.0, 0.1, 1 / 3, 1e16, 1e17, 123456789012345678.0,
]


def test_percent_format_is_format_number_on_every_double():
    g = np.random.default_rng(20)
    xs = np.concatenate([
        np.sign(g.standard_normal(200_000)) * 10.0 ** g.uniform(-300, 300, 200_000),
        SPECIAL,
        g.standard_normal(1000) * 1e-310,  # subnormals
    ]).tolist()
    assert all("%.17g" % x == format(x, ".17g") for x in xs)


def _complex_array(shape, seed):
    g = np.random.default_rng(seed)
    mags = 10.0 ** g.uniform(-20, 20, (2, *shape))
    return mags[0] * g.standard_normal(shape) + 1j * mags[1] * g.standard_normal(shape)


@pytest.mark.parametrize("shape", [(1,), (2,), (7,), (1, 1), (3, 4), (4, 4), (2, 3, 3), (3, 1, 2), (2, 2, 2, 2)])
def test_the_one_format_encoder_writes_the_loop_encoder_bytes(shape):
    arr = _complex_array(shape, sum(shape))
    arr.flat[0] = complex(-0.0, 0.0)
    assert _encode_data(arr) == loop_encode(arr)


def test_special_values_keep_their_digits():
    arr = np.array(SPECIAL, dtype=complex) + 1j * np.array(SPECIAL[::-1])
    doc = MatrixDocument("state", (len(SPECIAL),), arr)
    assert f'"data": {loop_encode(doc.data)},\n' in dumps(doc)
