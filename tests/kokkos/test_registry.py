"""Functor registry: linked list, LDM cache, SIMD matching, dict."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RegistrationError
from repro.experiments.variants import LinkedListRegistry
from repro.kokkos import DictRegistry, RegistryEntry


def _types(n):
    return [type(f"F{i}", (), {}) for i in range(n)]


def _fill(reg, types):
    for t in types:
        reg.register(RegistryEntry(t.__name__, t, "for", 1))


ALL_VARIANTS = [
    lambda: LinkedListRegistry(),
    lambda: LinkedListRegistry(ldm_cache=True),
    lambda: LinkedListRegistry(simd_width=8),
    lambda: LinkedListRegistry(ldm_cache=True, simd_width=8),
    lambda: DictRegistry(),
]


@pytest.mark.parametrize("make", ALL_VARIANTS)
class TestAllVariants:
    def test_register_and_lookup(self, make):
        reg = make()
        types = _types(10)
        _fill(reg, types)
        for t in types:
            assert reg.lookup(t).functor_type is t

    def test_len(self, make):
        reg = make()
        _fill(reg, _types(5))
        assert len(reg) == 5

    def test_missing_raises(self, make):
        reg = make()
        _fill(reg, _types(3))

        class Unregistered:
            pass

        with pytest.raises(RegistrationError):
            reg.lookup(Unregistered)

    def test_reregistration_replaces(self, make):
        reg = make()
        t = _types(1)[0]
        reg.register(RegistryEntry("first", t, "for", 1))
        reg.register(RegistryEntry("second", t, "for", 2))
        assert len(reg) == 1
        entry = reg.lookup(t)
        assert entry.name == "second"
        assert entry.ndim == 2

    def test_contains(self, make):
        reg = make()
        types = _types(2)
        _fill(reg, types)
        assert reg.contains(types[0])

        class Nope:
            pass

        assert not reg.contains(Nope)

    def test_clear(self, make):
        reg = make()
        types = _types(4)
        _fill(reg, types)
        reg.clear()
        assert len(reg) == 0
        with pytest.raises(RegistrationError):
            reg.lookup(types[0])

    def test_repeated_lookup_stable(self, make):
        reg = make()
        types = _types(12)
        _fill(reg, types)
        for _ in range(3):
            for t in types:
                assert reg.lookup(t).functor_type is t


class TestLinkedListSpecifics:
    def test_entries_head_first(self):
        reg = LinkedListRegistry()
        types = _types(3)
        _fill(reg, types)
        assert [e.functor_type for e in reg.entries()] == list(reversed(types))

    def test_ldm_cache_reduces_comparisons_on_hot_lookups(self):
        types = _types(40)
        hot = types[0]  # deepest in the list for the plain scan (head = last registered)
        plain = LinkedListRegistry()
        cached = LinkedListRegistry(ldm_cache=True)
        _fill(plain, types)
        _fill(cached, types)
        for _ in range(50):
            plain.lookup(hot)
            cached.lookup(hot)
        assert cached.comparisons < plain.comparisons

    def test_simd_reduces_comparisons(self):
        types = _types(64)
        plain = LinkedListRegistry()
        simd = LinkedListRegistry(simd_width=8)
        _fill(plain, types)
        _fill(simd, types)
        for t in types:
            plain.lookup(t)
            simd.lookup(t)
        assert simd.comparisons < plain.comparisons

    def test_simd_lazy_rebuild_after_register(self):
        reg = LinkedListRegistry(simd_width=4)
        types = _types(6)
        _fill(reg, types[:3])
        assert reg.lookup(types[0]).functor_type is types[0]
        _fill(reg, types[3:])
        assert reg.lookup(types[5]).functor_type is types[5]

    def test_invalid_simd_width(self):
        with pytest.raises(ValueError):
            LinkedListRegistry(simd_width=0)

    def test_invalid_cache_size(self):
        with pytest.raises(ValueError):
            LinkedListRegistry(ldm_cache=True, cache_size=0)

    def test_cache_bounded(self):
        reg = LinkedListRegistry(ldm_cache=True, cache_size=4)
        types = _types(20)
        _fill(reg, types)
        for t in types:
            reg.lookup(t)
        assert len(reg._cache) <= 4

    def test_dict_lookup_mutates_nothing(self):
        # the production registration table: no counters, no cache, so
        # rank threads may look functors up concurrently without a lock
        reg = DictRegistry()
        types = _types(30)
        _fill(reg, types)
        before = dict(vars(reg)["_map"])
        for t in types:
            assert reg.lookup(t).functor_type is t
        assert vars(reg) == {"_map": before}


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 40),
    seed=st.integers(0, 1000),
    variant=st.integers(0, 4),
)
def test_property_variants_agree(n, seed, variant):
    """Every registry variant resolves every registered functor."""
    import random

    types = _types(n)
    reg = ALL_VARIANTS[variant]()
    _fill(reg, types)
    rnd = random.Random(seed)
    for _ in range(30):
        t = rnd.choice(types)
        assert reg.lookup(t).functor_type is t
