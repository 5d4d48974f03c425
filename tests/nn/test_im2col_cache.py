"""im2col under ``no_grad()``: same values as with autograd on, no reuse.

(File and class keep the names of the scratch cache they once tested, so
the test ids stay stable.)
"""

import numpy as np

from repro import nn
from repro.nn import functional as F
from repro.nn.functional import im2col


def fresh_input(rng, shape=(2, 3, 8, 8)):
    return rng.normal(0.0, 1.0, shape).astype(np.float32)


class TestScratchReuse:
    def test_matches_grad_path(self):
        rng = np.random.default_rng(0)
        x = fresh_input(rng)
        with nn.no_grad():
            first, oh1, ow1 = im2col(x, kernel=3, stride=1, padding=1)
            second, _, _ = im2col(x, kernel=3, stride=1, padding=1)
        fresh, oh2, ow2 = im2col(x, kernel=3, stride=1, padding=1)
        assert (oh1, ow1) == (oh2, ow2)
        assert np.array_equal(first, fresh)
        assert not np.shares_memory(first, second)  # nothing is reused

    def test_conv2d_inference_unchanged_by_cache(self):
        rng = np.random.default_rng(6)
        conv = nn.Conv2d(3, 4, 3, padding=1, rng=rng)
        conv.eval()
        x = F.as_tensor(fresh_input(rng))
        expected = conv(x).data.copy()  # grad path
        with nn.no_grad():
            warm = conv(x).data.copy()
            again = conv(x).data.copy()
        assert np.allclose(expected, warm)
        assert np.array_equal(warm, again)
