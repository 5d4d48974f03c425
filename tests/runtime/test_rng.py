"""Tests for the seeded RNG context."""

from repro.runtime import RngContext, derive_seed


class TestDeriveSeed:
    def test_stable_across_calls(self):
        assert derive_seed(7, ("a", 1)) == derive_seed(7, ("a", 1))

    def test_varies_with_seed_and_scope(self):
        base = derive_seed(0, ("a",))
        assert derive_seed(1, ("a",)) != base
        assert derive_seed(0, ("b",)) != base
        assert derive_seed(0, ("a", 0)) != base

    def test_fits_64_bits(self):
        assert 0 <= derive_seed(123, ("x",)) < 2 ** 64


class TestRngContext:
    def test_same_scope_same_stream(self):
        a = RngContext(3).child("fog.pipeline.exits", 0)
        b = RngContext(3).child("fog.pipeline.exits", 0)
        assert [a.random() for _ in range(10)] == \
            [b.random() for _ in range(10)]

    def test_different_scopes_independent(self):
        context = RngContext(3)
        a = context.child("one")
        b = context.child("two")
        assert [a.random() for _ in range(10)] != \
            [b.random() for _ in range(10)]

    def test_np_child_reproducible(self):
        a = RngContext(5).np_child("shuffle")
        b = RngContext(5).np_child("shuffle")
        assert (a.integers(0, 1000, size=20) ==
                b.integers(0, 1000, size=20)).all()
