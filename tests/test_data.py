"""Trial containers, manifest IO, and the train/test split."""

import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from relconn.classify import TslrModel
from relconn.csp import SpatialFilterBank
from relconn.data import (_MANIFEST_KEYS, MANIFEST_NAME, ScatterSet, TrialSet,
                          _write_json, load_trialset, read_manifest,
                          save_trialset, split_rows, split_train_test)
from relconn.errors import DataError, SchemaError
from relconn.filters import FilterSpec, SosFilter
from relconn.geometry import ReferencePoint, SpdMatrix
from relconn.graphs import ConnectivityGraph


def make_set(n_trials=6, n_channels=3, n_samples=8, seed=0):
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((n_trials, n_channels, n_samples))
    names = tuple(f"ch{i}" for i in range(n_channels))
    return TrialSet(samples, np.arange(n_trials) % 2, np.arange(n_trials),
                    names, 128.0)


def one_trial(samples, label=0, trial_id=0, names=("a", "b")):
    return TrialSet(np.asarray(samples)[None], [label], [trial_id], names,
                    100.0)


class TestTrial:
    """Per-trial rules, checked once when a set is built."""

    def test_samples_stored_float64_readonly(self):
        t = one_trial([[1, 2], [3, 4]], trial_id=7)
        assert t.samples.dtype == np.float64
        assert not t.samples.flags.writeable
        assert t.n_channels == 2 and t.n_samples == 2
        assert t.ids.tolist() == [7] and not t.ids.flags.writeable

    def test_rejects_non_2d(self):
        # every trial is channels x samples, so the stack must be 3-D
        with pytest.raises(DataError, match="3-D"):
            TrialSet(np.zeros((2, 5)), [0, 1], [3, 4], ("a", "b"), 100.0)

    def test_rejects_bad_label(self):
        with pytest.raises(SchemaError, match="trial 4: label must be 0 or 1"):
            TrialSet(np.zeros((2, 2, 2)), [0, 2], [3, 4], ("a", "b"), 100.0)

    def test_rejects_non_finite(self):
        bad = np.zeros((3, 2, 2))
        bad[1, 1, 1] = np.nan
        with pytest.raises(DataError, match="trial 9: non-finite"):
            TrialSet(bad, [0, 1, 0], [8, 9, 10], ("a", "b"), 100.0)


class TestTrialSet:
    def test_empty_rejected(self):
        with pytest.raises(DataError, match="empty"):
            TrialSet(np.zeros((0, 2, 4)), [], [], ("a", "b"), 100.0)

    def test_geometry_mismatch_names_trial(self, tmp_path):
        # a trial file holding another channel count is caught at load
        manifest = save_trialset(make_set(), tmp_path)
        (tmp_path / "trials" / "trial_00001.bin").write_bytes(
            np.zeros((4, 8)).tobytes())
        with pytest.raises(SchemaError, match="trial 1"):
            load_trialset(read_manifest(manifest))
        with pytest.raises(SchemaError, match="channel_names"):
            TrialSet(np.zeros((2, 3, 4)), [0, 1], [0, 1], ("a", "b"), 100.0)

    def test_sample_count_mismatch(self, tmp_path):
        manifest = save_trialset(make_set(), tmp_path)
        (tmp_path / "trials" / "trial_00001.bin").write_bytes(
            np.zeros((3, 9)).tobytes())
        with pytest.raises(SchemaError, match="trial 1"):
            load_trialset(read_manifest(manifest))

    def test_duplicate_ids(self):
        with pytest.raises(SchemaError, match="duplicate trial id 5"):
            TrialSet(np.zeros((2, 2, 4)), [0, 1], [5, 5], ("a", "b"), 100.0)

    def test_bad_sampling_rate(self):
        with pytest.raises(SchemaError, match="sampling_rate_hz"):
            TrialSet(np.zeros((1, 2, 4)), [0], [0], ("a", "b"), 0.0)

    def test_labels_and_of_class(self):
        ts = make_set(n_trials=5)
        assert ts.labels.tolist() == [0, 1, 0, 1, 0]
        assert ts.ids[ts.labels == 1].tolist() == [1, 3]
        assert len(ts) == 5 and ts.n_channels == 3

    def test_subset_keeps_order_and_metadata(self):
        ts = make_set(n_trials=5)
        sub = ts.subset(np.array([4, 1]))
        assert sub.ids.tolist() == [4, 1] and sub.labels.tolist() == [0, 1]
        assert np.array_equal(sub.samples, ts.samples[[4, 1]])
        assert not sub.samples.flags.writeable
        assert sub.channel_names == ts.channel_names
        assert sub.sampling_rate_hz == ts.sampling_rate_hz

    def test_callers_array_stays_writable(self):
        samples = np.zeros((1, 2, 3))
        one_trial(samples[0])
        TrialSet(samples, [0], [0], ("a", "b"), 100.0)
        assert samples.flags.writeable


class TestScatterSet:
    def test_from_trials_is_x_xt(self):
        ts = make_set(n_trials=4)
        s = ScatterSet.from_trials(ts)
        for i in range(4):
            x = ts.samples[i]
            assert_allclose(s.matrices[i], x @ x.T, rtol=1e-14)
        assert s.n_samples == ts.n_samples
        assert s.ids.tolist() == ts.ids.tolist()
        assert s.labels.tolist() == ts.labels.tolist()
        assert s.channel_names == ts.channel_names
        assert not s.matrices.flags.writeable

    def test_subset(self):
        s = ScatterSet.from_trials(make_set(n_trials=5))
        sub = s.subset(s.labels == 0)
        assert sub.ids.tolist() == [0, 2, 4] and len(sub) == 3
        assert np.array_equal(sub.matrices, s.matrices[[0, 2, 4]])
        assert sub.n_samples == s.n_samples

    @pytest.mark.parametrize("matrices, error, match", [
        (np.zeros((2, 3, 2)), DataError, "channels x channels"),
        (np.zeros((2, 3, 3)), SchemaError, "channel_names"),
        (np.full((2, 2, 2), np.inf), DataError, "trial 0: non-finite"),
    ])
    def test_validated(self, matrices, error, match):
        with pytest.raises(error, match=match):
            ScatterSet(matrices, 4, [0, 1], [0, 1], ("a", "b"))


# container -> (fields, build): build makes the container from the named
# arrays, which the test owns
KEPT_FIELDS = {
    "SpatialFilterBank": (
        {"w": np.eye(2), "patterns": np.eye(2),
         "eigenvalues": np.array([0.75, 0.25])},
        lambda a: SpatialFilterBank(a["w"], a["patterns"], a["eigenvalues"])),
    "SosFilter": (
        {"sections": np.array([[1.0, 0.0, 0.0, 1.0, -0.5, 0.0]])},
        lambda a: SosFilter(a["sections"],
                            FilterSpec("butterworth", 1, (1.0, 10.0), 100.0))),
    "ConnectivityGraph": (
        {"weights": np.array([[0.0, 1.0], [1.0, 0.0]]),
         "modules": np.array([0, 1])},
        lambda a: ConnectivityGraph(("a", "b"), a["weights"], a["modules"])),
    "TslrModel": (
        {"weights": np.zeros(3)},
        lambda a: TslrModel(a["weights"], 0.0, 0.1,
                            ReferencePoint.from_mean(SpdMatrix(np.eye(2))),
                            SpatialFilterBank(np.eye(2), np.eye(2),
                                              np.array([0.75, 0.25])))),
}


class TestKeptArrays:
    """A container keeps a read-only copy of each array it is handed, so
    the caller's own array stays writable."""

    @pytest.mark.parametrize("container", sorted(KEPT_FIELDS))
    def test_callers_arrays_stay_writable(self, container):
        arrays, build = KEPT_FIELDS[container]
        built = build(arrays)
        for name, a in arrays.items():
            assert a.flags.writeable and a.flags.c_contiguous, name
            kept = getattr(built, name)
            assert not kept.flags.writeable, name
            assert not np.shares_memory(kept, a), name
            assert np.array_equal(kept, a), name


class TestSubsetIndex:
    """`subset` picks rows by a slice, an index array or a boolean mask. A
    0-d index would drop the trial axis and a 2-D one would add one, so
    every container refuses both."""

    @staticmethod
    def containers(tmp_path):
        ts = make_set(n_trials=8)
        return ts, ScatterSet.from_trials(ts), read_manifest(
            save_trialset(ts, tmp_path))

    @pytest.mark.parametrize("index", [3, np.int64(3), True, np.bool_(False)])
    def test_zero_d_index_refused(self, tmp_path, index):
        for container in self.containers(tmp_path):
            with pytest.raises(ValueError, match=re.escape(
                    f"subset index {index!r} is not a slice, an index "
                    f"array or a boolean mask")):
                container.subset(index)

    @pytest.mark.parametrize("index", [np.array([[1, 2]]), [[1], [2]],
                                       np.ones((2, 4), dtype=bool)])
    def test_two_d_index_refused(self, tmp_path, index):
        for container in self.containers(tmp_path):
            with pytest.raises(ValueError, match=re.escape(
                    f"subset index {index!r} is not a slice, an index "
                    f"array or a boolean mask")):
                container.subset(index)

    def test_one_row_keeps_the_trial_axis(self, tmp_path):
        for container in self.containers(tmp_path):
            sub = container.subset([3])
            assert len(sub) == 1 and sub.ids.tolist() == [3]

    def test_slice_gives_views(self, tmp_path):
        ts, scatter, _ = self.containers(tmp_path)
        assert np.shares_memory(ts.subset(slice(2, 5)).samples, ts.samples)
        assert np.shares_memory(scatter.subset(slice(2, 5)).matrices,
                                scatter.matrices)


class TestManifestRoundTrip:
    def test_bit_exact(self, tmp_path):
        ts = make_set(seed=3)
        manifest = save_trialset(ts, tmp_path)
        assert manifest.name == MANIFEST_NAME
        back = load_trialset(read_manifest(manifest))
        assert back.channel_names == ts.channel_names
        assert back.sampling_rate_hz == ts.sampling_rate_hz
        assert back.class_names == ts.class_names
        assert back.ids.tolist() == ts.ids.tolist()
        assert back.labels.tolist() == ts.labels.tolist()
        # raw little-endian float64 on disk, so equality is exact
        assert np.array_equal(back.samples, ts.samples)

    def test_missing_manifest_field(self, tmp_path):
        manifest = save_trialset(make_set(), tmp_path)
        d = json.loads(manifest.read_text())
        del d["sampling_rate_hz"]
        manifest.write_text(json.dumps(d))
        with pytest.raises(SchemaError, match="sampling_rate_hz"):
            load_trialset(read_manifest(manifest))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_number_is_not_written(self, tmp_path, value):
        # JSON has no NaN or Infinity, so no file may hold one
        path = tmp_path / "out" / "a.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            _write_json(path, {"a": [1.0, value]})
        assert not path.exists()

    def test_invalid_json(self, tmp_path):
        path = tmp_path / MANIFEST_NAME
        path.write_text("{not json")
        with pytest.raises(SchemaError, match="not valid JSON"):
            load_trialset(read_manifest(path))

    def test_truncated_trial_file(self, tmp_path):
        manifest = save_trialset(make_set(), tmp_path)
        victim = tmp_path / "trials" / "trial_00002.bin"
        victim.write_bytes(victim.read_bytes()[:-8])
        with pytest.raises(SchemaError, match="trial 2"):
            load_trialset(read_manifest(manifest))

    @pytest.mark.parametrize("change", [3, -3, 8])
    def test_partial_value_is_a_size_mismatch(self, tmp_path, change):
        # 3 x 8 float64 values are 192 bytes; a file 3 bytes longer holds
        # a trailing partial value, which must not be dropped silently
        manifest = save_trialset(make_set(), tmp_path)
        victim = tmp_path / "trials" / "trial_00002.bin"
        raw = victim.read_bytes()
        victim.write_bytes(raw + b"\0" * change if change > 0
                           else raw[:change])
        with pytest.raises(SchemaError) as err:
            load_trialset(read_manifest(manifest))
        assert str(err.value) == (
            f"trial 2: file trials/trial_00002.bin holds {192 + change} "
            f"bytes, expected 3x8=24 float64 values, 192 bytes")

    def test_missing_trial_file(self, tmp_path):
        manifest = save_trialset(make_set(), tmp_path)
        (tmp_path / "trials" / "trial_00001.bin").unlink()
        with pytest.raises(FileNotFoundError):
            load_trialset(read_manifest(manifest))

    def test_channel_name_count_mismatch(self, tmp_path):
        manifest = save_trialset(make_set(), tmp_path)
        d = json.loads(manifest.read_text())
        d["channel_names"] = d["channel_names"][:-1]
        manifest.write_text(json.dumps(d))
        with pytest.raises(SchemaError, match="channel_names"):
            load_trialset(read_manifest(manifest))

    @pytest.mark.parametrize("field, value", [
        ("label", 1.7), ("id", 2.5), ("label", "1"), ("label", True),
        ("channels", 3.5), ("samples", 8.25),
    ])
    def test_non_integer_field_rejected(self, tmp_path, field, value):
        manifest = save_trialset(make_set(), tmp_path)
        d = json.loads(manifest.read_text())
        if field in ("label", "id"):
            d["trials"][1][field] = value
        else:
            d[field] = value
        manifest.write_text(json.dumps(d))
        with pytest.raises(SchemaError, match=f"'{field}' must be an integer"):
            load_trialset(read_manifest(manifest))

    def test_integral_float_fields_accepted(self, tmp_path):
        ts = make_set()
        manifest = save_trialset(ts, tmp_path)
        d = json.loads(manifest.read_text())
        d["channels"] = float(d["channels"])
        d["trials"][1]["label"] = 1.0
        manifest.write_text(json.dumps(d))
        assert load_trialset(read_manifest(manifest)).labels.tolist() == ts.labels.tolist()

    def test_trial_row_missing_key(self, tmp_path):
        manifest = save_trialset(make_set(), tmp_path)
        d = json.loads(manifest.read_text())
        del d["trials"][0]["label"]
        manifest.write_text(json.dumps(d))
        with pytest.raises(SchemaError, match="label"):
            load_trialset(read_manifest(manifest))


class TestRowSelection:
    """Every manifest row is checked, but `load_trialset` reads only the
    trial files of the rows `Manifest.subset` picked."""

    @pytest.mark.parametrize("rows", [
        slice(2, 5), slice(None, None, 2), np.array([4, 0, 3]),
        np.arange(6) % 3 == 0,
    ], ids=["slice", "step", "index", "mask"])
    def test_equals_subset_of_full_load(self, tmp_path, rows):
        manifest = save_trialset(make_set(seed=5), tmp_path)
        full = load_trialset(read_manifest(manifest))
        part = load_trialset(read_manifest(manifest).subset(rows))
        expected = full.subset(rows)
        assert part.ids.tolist() == expected.ids.tolist()
        assert part.labels.tolist() == expected.labels.tolist()
        assert np.array_equal(part.samples, expected.samples)
        assert part.channel_names == full.channel_names
        assert part.sampling_rate_hz == full.sampling_rate_hz
        assert part.class_names == full.class_names

    def test_other_rows_files_are_not_read(self, tmp_path):
        manifest = save_trialset(make_set(), tmp_path)
        (tmp_path / "trials" / "trial_00004.bin").unlink()
        (tmp_path / "trials" / "trial_00005.bin").write_bytes(b"")
        m = read_manifest(manifest)
        assert load_trialset(m.subset(slice(None, 4))).ids.tolist() == [
            0, 1, 2, 3]
        with pytest.raises(FileNotFoundError):
            load_trialset(m.subset(slice(4, None)))
        with pytest.raises(SchemaError, match="trial 5: file"):
            load_trialset(m.subset([5]))

    @pytest.mark.parametrize("row, field, value, match", [
        (5, "label", 2, "trial 5: label must be 0 or 1, got 2"),
        (5, "id", 1, "duplicate trial id 1"),
        (4, "id", 4.5, "'id' must be an integer"),
        (5, "file", 7, "trial 5: field 'file' must be a string"),
    ])
    def test_every_row_is_checked(self, tmp_path, row, field, value, match):
        manifest = save_trialset(make_set(), tmp_path)
        d = json.loads(manifest.read_text())
        d["trials"][row][field] = value
        manifest.write_text(json.dumps(d))
        with pytest.raises(SchemaError, match=match):
            load_trialset(read_manifest(manifest).subset(slice(None, 3)))

    def test_manifest_alone_opens_no_trial_file(self, tmp_path):
        ts = make_set()
        manifest = save_trialset(ts, tmp_path)
        for path in (tmp_path / "trials").iterdir():
            path.unlink()
        m = read_manifest(manifest)
        assert len(m) == len(ts)
        assert m.ids.tolist() == ts.ids.tolist()
        assert m.labels.tolist() == ts.labels.tolist()
        assert m.class_names == ts.class_names
        assert m.channel_names == ts.channel_names
        assert m.files[1] == "trials/trial_00001.bin"

    @pytest.mark.parametrize("field, value, match", [
        ("class_names", ["a"], "class_names has 1 entries, expected 2"),
        ("channel_names", ["a"], "channel_names has 1 entries, expected 3"),
        ("sampling_rate_hz", -1.0, "sampling_rate_hz must be positive"),
        ("sampling_rate_hz", math.inf,
         "sampling_rate_hz must be positive and finite, got inf"),
    ])
    def test_manifest_alone_checks_names_and_rate(self, tmp_path, field,
                                                  value, match):
        manifest = save_trialset(make_set(), tmp_path)
        d = json.loads(manifest.read_text())
        d[field] = value
        manifest.write_text(json.dumps(d))
        with pytest.raises(SchemaError, match=match):
            read_manifest(manifest)


class TestSplit:
    def test_order_preserved(self):
        ts = make_set(n_trials=10)
        train, test = split_train_test(ts, 7)
        assert train.ids.tolist() == list(range(7))
        assert test.ids.tolist() == [7, 8, 9]
        assert train.channel_names == ts.channel_names

    @pytest.mark.parametrize("n_train", [0, 10, 11, -1])
    def test_bounds(self, n_train):
        ts = make_set(n_trials=10)
        with pytest.raises(ValueError, match="n_train"):
            split_train_test(ts, n_train)

    def test_rows_need_only_the_count(self):
        assert split_rows(10, 7) == (slice(None, 7), slice(7, None))
        with pytest.raises(ValueError, match=r"n_train must be in \(0, 10\)"):
            split_rows(10, 10)


# values no manifest field takes; sampling_rate_hz also takes any float
_JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.floats().filter(lambda v: not v.is_integer()),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


@st.composite
def manifest_faults(draw):
    """A fault to plant in a saved 3-trial set: (kind, target, value)."""
    kind = draw(st.sampled_from(
        ["drop", "retype", "drop_row_key", "retype_row_key", "bad_row",
         "integral_float", "duplicate_id", "resize_file", "non_finite"]))
    row = draw(st.integers(0, 2))
    if kind == "drop":
        return kind, draw(st.sampled_from(sorted(_MANIFEST_KEYS))), None
    if kind == "retype":
        key = draw(st.sampled_from(sorted(_MANIFEST_KEYS)))
        junk = _JUNK.filter(lambda v: not (key == "sampling_rate_hz"
                                            and isinstance(v, float)
                                            and v > 0))
        return kind, key, draw(junk)
    if kind == "integral_float":
        return kind, (row, draw(st.sampled_from(["id", "label"]))), None
    if kind in ("drop_row_key", "retype_row_key"):
        key = draw(st.sampled_from(["id", "label", "file"]))
        value = draw(_JUNK | st.sampled_from([2, -1]))
        if key == "file" and isinstance(value, str):
            value = None    # a missing file has its own test
        return kind, (row, key), value
    if kind == "bad_row":
        return kind, row, draw(_JUNK)
    if kind == "duplicate_id":
        return kind, row, draw(st.integers(0, 2).filter(lambda r: r != row))
    if kind == "resize_file":
        return kind, row, draw(st.integers(-24, 3).filter(bool))
    return kind, row, draw(st.sampled_from([np.nan, np.inf, -np.inf]))


@pytest.mark.parametrize("key", ["id", "label"])
def test_manifest_value_beyond_int64(tmp_path, key):
    manifest = save_trialset(make_set(n_trials=3), tmp_path)
    d = json.loads(manifest.read_text())
    d["trials"][1][key] = 2 ** 70
    manifest.write_text(json.dumps(d))
    with pytest.raises(SchemaError) as err:
        read_manifest(manifest)
    assert str(err.value) == (f"trial row 1: field {key!r} must fit in "
                              f"int64, got {2 ** 70}")


class TestManifestFuzz:
    @settings(max_examples=150, deadline=None, database=None)
    @given(fault=manifest_faults())
    def test_loads_or_names_the_problem(self, fault):
        kind, target, value = fault
        ts = make_set(n_trials=3, n_channels=2, n_samples=3, seed=4)
        with tempfile.TemporaryDirectory() as root:
            manifest = save_trialset(ts, root)
            d = json.loads(manifest.read_text())
            rows = d["trials"]
            expect = None          # message fragment; None means loadable
            if kind == "drop":
                del d[target]
                expect = target
            elif kind == "retype":
                d[target] = value
                # a list of non-objects fails on its first row
                expect = "trial" if target == "trials" else target
            elif kind == "drop_row_key":
                i, key = target
                del rows[i][key]
                expect = f"trial row {i} missing field {key!r}"
            elif kind == "retype_row_key":
                i, key = target
                rows[i][key] = value
                expect = key
                if key == "label" and value in (2, -1):
                    expect = f"trial {i}: label must be 0 or 1"
                # an integral id is accepted unless it repeats another id
                if key == "id" and value in (2, -1):
                    expect = ("duplicate trial id 2" if value == 2 and i != 2
                              else None)
            elif kind == "integral_float":
                i, key = target
                rows[i][key] = float(rows[i][key])
            elif kind == "bad_row":
                rows[target] = value
                expect = f"trial row {target}"
            elif kind == "duplicate_id":
                rows[target]["id"] = rows[value]["id"]
                expect = f"duplicate trial id {rows[value]['id']}"
            else:
                path = Path(root) / rows[target]["file"]
                x = np.fromfile(path, dtype="<f8")
                if kind == "resize_file":
                    x = x[:value] if value < 0 else np.concatenate(
                        [x, np.zeros(value)])
                else:
                    x[1] = value
                path.write_bytes(x.astype("<f8").tobytes())
                expect = f"trial {target}"
            manifest.write_text(json.dumps(d))

            if expect is None:
                back = load_trialset(read_manifest(manifest))
                assert np.array_equal(back.samples, ts.samples)
                assert back.labels.tolist() == ts.labels.tolist()
                assert back.ids.tolist() == [r["id"] for r in rows]
                return
            with pytest.raises((SchemaError, DataError)) as err:
                load_trialset(read_manifest(manifest))
            assert expect in str(err.value)
