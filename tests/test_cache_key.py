"""Property-based tests for the content-addressed cache.

The cache key must be a pure function of (source digest, job config):
identical inputs always produce identical keys, and *any* change to a
trace-affecting module source or to any config field must change the
key.  Corrupt or truncated archives are detected and recomputed, never
crashed on — and the cache directory is resolved from the environment
at call time, so tests can redirect it per-test.
"""

from __future__ import annotations

import glob
import os
import pickle
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import cache
from repro.analysis.runner import get_trace, run_vm
from repro.sync import LOCK_MANAGERS
from repro.vm.config import CONFIGS, VMConfig

# -- key properties ----------------------------------------------------

_field_values = st.one_of(
    st.text(max_size=12),
    st.integers(-1000, 1000),
    st.booleans(),
    st.none(),
    st.lists(st.text(max_size=6), max_size=4),
)
_configs = st.dictionaries(
    # "root" is cache_key's source-tree parameter, not a config field.
    st.text(st.characters(min_codepoint=97, max_codepoint=122),
            min_size=1, max_size=10).filter(lambda k: k != "root"),
    _field_values,
    min_size=1,
    max_size=6,
)


class TestKeyProperties:
    @settings(max_examples=50, deadline=None)
    @given(_configs)
    def test_same_config_same_key(self, config):
        assert (cache.cache_key("trace", **config)
                == cache.cache_key("trace", **config))

    @settings(max_examples=50, deadline=None)
    @given(_configs, st.data())
    def test_any_field_change_changes_key(self, config, data):
        field = data.draw(st.sampled_from(sorted(config)))
        new_value = data.draw(_field_values.filter(
            lambda v, old=config[field]: v != old))
        changed = dict(config, **{field: new_value})
        assert (cache.cache_key("run", **config)
                != cache.cache_key("run", **changed))

    @settings(max_examples=20, deadline=None)
    @given(_configs)
    def test_kind_is_part_of_the_key(self, config):
        assert (cache.cache_key("trace", **config)
                != cache.cache_key("run", **config))

    def test_added_and_removed_fields_change_key(self):
        base = cache.cache_key("run", workload="db", scale="s1")
        assert base != cache.cache_key("run", workload="db", scale="s1",
                                       inline=True)
        assert base != cache.cache_key("run", workload="db")


# -- VMConfig keys -----------------------------------------------------

_thresholds = st.integers(1, 10_000)
_flags = st.booleans()

#: A value strategy for every VMConfig field; a field added to VMConfig
#: without an entry here fails ``test_every_field_has_a_strategy``.
_FIELD_VALUES = {
    "strategy": st.sampled_from(["interp", "jit", "counter", "oracle",
                                 "tiered"]),
    "threshold": _thresholds,
    "t1": _thresholds,
    "t2": _thresholds,
    "osr": _thresholds,
    "t2_backedges": _thresholds,
    "compile_ratio": st.floats(1e-6, 1e6),
    "speculate": _flags,
    "t2_screen": _flags,
    "compile_set": st.frozensets(st.text(max_size=8), max_size=5),
    "lock_manager": st.sampled_from(sorted(LOCK_MANAGERS)),
    "inline": _flags,
    "profile": _flags,
    "folding": _flags,
    "jit_opt": _flags,
    "lock_elision": _flags,
    "static_concurrency": _flags,
}


class TestVMConfigKey:
    def test_every_field_has_a_strategy(self):
        assert set(_FIELD_VALUES) == {f.name for f in fields(VMConfig)}

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(CONFIGS)),
           st.sampled_from([f.name for f in fields(VMConfig)]), st.data())
    def test_any_field_change_changes_key(self, name, field, data):
        base = CONFIGS[name]
        value = data.draw(_FIELD_VALUES[field].filter(
            lambda v, old=getattr(base, field): v != old))
        changed = base.replace(**{field: value})
        assert changed.key() != base.key()
        assert changed.key() == base.replace(**{field: value}).key()

    def test_equal_size_compile_sets_differ(self):
        """The strategy's manifest view records only the set's size; the
        key must carry the members."""
        a = VMConfig("oracle", compile_set={"A.m", "B.m"})
        b = VMConfig("oracle", compile_set={"A.m", "C.m"})
        assert (a.make_strategy().describe()
                == b.make_strategy().describe())
        assert a.key() != b.key()

    def test_registry_entries_have_distinct_keys(self):
        keys = {config.key() for config in CONFIGS.values()}
        assert len(keys) == len(CONFIGS)


# -- source digest -----------------------------------------------------

def _fake_source_tree(root, content=b"x = 1\n"):
    vm = os.path.join(str(root), "vm")
    os.makedirs(vm, exist_ok=True)
    with open(os.path.join(vm, "machine.py"), "wb") as fh:
        fh.write(content)
    return str(root)


class TestSourceDigest:
    def test_stable_for_identical_tree(self, tmp_path):
        root = _fake_source_tree(tmp_path)
        first = cache.source_digest(root)
        cache.reset_source_digest()
        assert cache.source_digest(root) == first

    def test_source_edit_changes_digest_and_key(self, tmp_path):
        root = _fake_source_tree(tmp_path)
        before = cache.source_digest(root)
        key_before = cache.cache_key("trace", root=root, workload="db")
        _fake_source_tree(tmp_path, content=b"x = 2\n")
        cache.reset_source_digest()
        after = cache.source_digest(root)
        assert after != before
        assert cache.cache_key("trace", root=root, workload="db") != key_before

    def test_new_module_changes_digest(self, tmp_path):
        root = _fake_source_tree(tmp_path)
        before = cache.source_digest(root)
        with open(os.path.join(root, "vm", "jit.py"), "wb") as fh:
            fh.write(b"y = 3\n")
        cache.reset_source_digest()
        assert cache.source_digest(root) != before

    def test_non_trace_affecting_files_ignored(self, tmp_path):
        root = _fake_source_tree(tmp_path)
        before = cache.source_digest(root)
        os.makedirs(os.path.join(root, "experiments"), exist_ok=True)
        with open(os.path.join(root, "experiments", "fig1.py"), "wb") as fh:
            fh.write(b"z = 4\n")
        cache.reset_source_digest()
        assert cache.source_digest(root) == before

    def test_real_package_digest_covers_the_vm(self):
        files = cache.trace_affecting_files()
        names = {os.path.basename(f) for f in files}
        assert {"machine.py", "interpreter.py", "trace.py",
                "runner.py"} <= names
        assert all(f.endswith(".py") for f in files)


# -- corruption recovery ----------------------------------------------

class TestCorruptArchives:
    def _trace_path(self, cache_dir):
        (path,) = glob.glob(os.path.join(cache_dir, "traces",
                                         "hello-s0-interp-*.npy"))
        return path

    def test_corrupt_trace_recomputed(self, tmp_path):
        cache_dir = str(tmp_path)
        fresh = get_trace("hello", "s0", "interp", cache_dir=cache_dir)
        path = self._trace_path(cache_dir)
        assert os.path.exists(path)
        with open(path, "wb") as fh:
            fh.write(b"this is not an npz archive")
        cache.reset_stats()
        recovered = get_trace("hello", "s0", "interp", cache_dir=cache_dir)
        assert recovered.n == fresh.n
        assert (recovered.pc == fresh.pc).all()
        assert cache.STATS.corrupt == 1
        # The recomputed archive replaced the corrupt one and loads again.
        cache.reset_stats()
        get_trace("hello", "s0", "interp", cache_dir=cache_dir)
        assert cache.STATS.trace_hits == 1
        assert cache.STATS.corrupt == 0

    def test_truncated_trace_recomputed(self, tmp_path):
        cache_dir = str(tmp_path)
        fresh = get_trace("hello", "s0", "interp", cache_dir=cache_dir)
        path = self._trace_path(cache_dir)
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[: len(blob) // 2])
        cache.reset_stats()
        recovered = get_trace("hello", "s0", "interp", cache_dir=cache_dir)
        assert recovered.n == fresh.n
        assert cache.STATS.corrupt == 1

    def test_corrupt_run_result_recomputed(self, tmp_path):
        cache_dir = str(tmp_path)
        fresh = run_vm("hello", scale="s0", mode="interp",
                       cache_dir=cache_dir)
        runs = os.path.join(cache_dir, "runs")
        pkls = [f for f in os.listdir(runs) if f.endswith(".pkl")]
        assert len(pkls) == 1
        path = os.path.join(runs, pkls[0])
        with open(path, "wb") as fh:
            fh.write(pickle.dumps({"not": "a VMResult"})[:-4])
        cache.reset_stats()
        recovered = run_vm("hello", scale="s0", mode="interp",
                           cache_dir=cache_dir)
        assert recovered.stdout == fresh.stdout
        assert recovered.cycles == fresh.cycles
        assert cache.STATS.corrupt == 1


# -- cached results are indistinguishable ------------------------------

class TestRoundTrip:
    def test_cached_run_equals_fresh_run(self, tmp_path):
        cold = run_vm("db", scale="s0", mode="jit", cache_dir=str(tmp_path))
        warm = run_vm("db", scale="s0", mode="jit", cache_dir=str(tmp_path))
        assert warm.stdout == cold.stdout
        assert warm.cycles == cold.cycles
        assert warm.translate_cycles == cold.translate_cycles
        assert (warm.category_counts == cold.category_counts).all()
        assert warm.footprint == cold.footprint

    def test_uncacheable_modes_bypass_cache(self, tmp_path):
        """Runs against a code archive are never cached."""
        run_vm("hello", scale="s0", mode="jit",
               cache_dir=str(tmp_path / "cache"),
               code_archive=str(tmp_path / "archive"))
        assert not os.path.exists(tmp_path / "cache" / "runs")

    def test_archive_traces_never_alias_archive_off_traces(
            self, tmp_path, monkeypatch):
        """A trace recorded against a warm code archive has fewer
        translate rows; it must not be served to an archive-off call."""
        monkeypatch.delenv("REPRO_CODE_ARCHIVE", raising=False)
        cache_dir, archive = str(tmp_path / "cache"), str(tmp_path / "a")
        fresh = get_trace("hello", "s0", "jit", cache_dir="")
        run_vm("hello", scale="s0", mode="jit", code_archive=archive)
        monkeypatch.setenv("REPRO_CODE_ARCHIVE", archive)
        warm = get_trace("hello", "s0", "jit", cache_dir=cache_dir)
        assert warm.n != fresh.n
        monkeypatch.delenv("REPRO_CODE_ARCHIVE")
        again = get_trace("hello", "s0", "jit", cache_dir=cache_dir)
        assert again.n == fresh.n
        assert (again.pc == fresh.pc).all()

    def test_recording_runs_bypass_result_cache(self, tmp_path):
        result = run_vm("hello", scale="s0", mode="interp", record=True,
                        cache_dir=str(tmp_path))
        assert result.trace is not None
        assert not os.path.exists(os.path.join(str(tmp_path), "runs"))


# -- call-time environment resolution (the DEFAULT_CACHE_DIR fix) ------

class TestCallTimeCacheDir:
    def test_env_redirect_after_import(self, tmp_path, monkeypatch):
        """REPRO_TRACE_CACHE is honoured per call, not frozen at import."""
        target = tmp_path / "redirected"
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(target))
        assert cache.default_cache_dir() == str(target)
        get_trace("hello", "s0", "interp")
        assert (target / "traces").is_dir()
        assert any(f.endswith(".npy")
                   for f in os.listdir(target / "traces"))

    def test_empty_env_disables_cache(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "")
        assert cache.default_cache_dir() is None
        monkeypatch.chdir(tmp_path)
        get_trace("hello", "s0", "interp")
        assert not os.path.exists(tmp_path / ".trace_cache")

    def test_explicit_empty_arg_disables_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "env"))
        get_trace("hello", "s0", "interp", cache_dir="")
        assert not os.path.exists(tmp_path / "env")

    def test_resolve_dir_precedence(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "/env/dir")
        assert cache.resolve_dir(None) == "/env/dir"
        assert cache.resolve_dir("/explicit") == "/explicit"
        assert cache.resolve_dir("") is None
        monkeypatch.delenv("REPRO_TRACE_CACHE")
        assert cache.resolve_dir(None) == ".trace_cache"
