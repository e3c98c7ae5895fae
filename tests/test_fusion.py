import numpy as np
import pytest

import nodemetry as nm
from conftest import make_volume
from oracles import replay_precedence

SMALL_SPEC = """
body = 1
nodes = 2
spleen = 3
liver = 4
[precedence]
1 3 4 2
"""


def binary(shape, coords):
    data = np.zeros(shape, np.uint8)
    for c in coords:
        data[c] = 1
    return make_volume(data, kind="label")


def test_default_spec_matches_published_table():
    spec = nm.default_fusion_spec()
    assert spec.class_count == 29
    assert spec.group_map["spleen"] == 3
    assert spec.group_map["trachea"] == 16
    assert spec.group_map["pulmonary_artery"] == 18
    assert spec.ln_class == 2
    assert spec.precedence[-1] == 2
    assert set(spec.precedence) == set(range(1, 30))


def test_grouped_names_share_one_class():
    spec = nm.default_fusion_spec()
    assert spec.group_map["kidney_left"] == spec.group_map["kidney_right"] == 4
    assert spec.group_map["lung_upper_lobe_left"] == 13
    assert spec.group_map["lung_lower_lobe_right"] == 13


def test_gap_in_target_ids_lists_missing():
    text = "a = 1\nb = 3\n[precedence]\n1 3\n"
    with pytest.raises(nm.ValidationError, match=r"\[2\]"):
        nm.parse_fusion_spec(text)


def test_duplicate_name_rejected():
    text = "a = 1\na = 2\n[precedence]\n1 2\n"
    with pytest.raises(nm.ValidationError, match="duplicate"):
        nm.parse_fusion_spec(text)


def test_background_id_rejected():
    with pytest.raises(nm.ValidationError, match="background"):
        nm.parse_fusion_spec("a = 0\n[precedence]\n0\n")


def test_missing_precedence_rejected():
    with pytest.raises(nm.ValidationError, match="precedence"):
        nm.parse_fusion_spec("a = 1\n")


def test_precedence_must_cover_targets():
    with pytest.raises(nm.ValidationError, match="precedence"):
        nm.parse_fusion_spec("a = 1\nb = 2\n[precedence]\n1\n")


@pytest.mark.parametrize("text, message", [
    ("a = 1\n[classes]\n", "line 2: unknown section [classes]"),
    ("a = 1\n[precedence]\n1 x\n", "line 3: bad class id 'x'"),
    ("a = 1\nb\n", "line 2: expected `name = class_id`, got 'b'"),
    ("a = one\n", "line 1: bad class id 'one'"),
    ("a = -3\n", "line 1: negative class id -3"),
    ("# nothing mapped\n[precedence]\n1\n", "fusion spec maps no structures"),
    ("a = 1\nb = 2\n[precedence]\n1, 2, 1\n", "duplicate class id in precedence"),
], ids=["section", "precedence-id", "no-equals", "class-id", "negative", "empty",
        "duplicate-precedence"])
def test_spec_errors_name_their_line(text, message):
    with pytest.raises(nm.ValidationError) as err:
        nm.parse_fusion_spec(text)
    assert str(err.value) == message


def test_bad_spec_file_exits_1_before_any_mask_is_read(tmp_path, capsys):
    from nodemetry.cli import main
    anatomy = tmp_path / "anatomy"
    anatomy.mkdir()
    nm.write_volume(binary((4, 4, 3), [(1, 1, 1)]), anatomy / "spleen.nii")
    nm.write_volume(binary((4, 4, 3), [(2, 2, 2)]), tmp_path / "ln.nii")
    spec = tmp_path / "spec.map"
    spec.write_text("spleen = 1\nnodes = 2\n[precedence]\n1 two\n")
    out = tmp_path / "fused.nii"
    assert main(["fuse", "--anatomy-dir", str(anatomy), "--ln", str(tmp_path / "ln.nii"),
                 "--spec", str(spec), "--out", str(out)]) == 1
    assert "error: line 4: bad class id 'two'" in capsys.readouterr().err
    assert not out.exists()


def test_fuse_single_structure():
    spec = nm.parse_fusion_spec(SMALL_SPEC)
    shape = (4, 4, 4)
    spleen = binary(shape, [(1, 1, 1)])
    ln = binary(shape, [])
    fused = nm.fuse([("spleen", spleen)], ln, spec)
    assert fused.data[1, 1, 1] == 3
    assert fused.data.sum() == 3


def test_fuse_ln_wins_over_anatomy():
    spec = nm.parse_fusion_spec(SMALL_SPEC)
    shape = (4, 4, 4)
    liver = binary(shape, [(2, 2, 2), (2, 2, 3)])
    ln = binary(shape, [(2, 2, 2)])
    fused = nm.fuse([("liver", liver)], ln, spec)
    assert fused.data[2, 2, 2] == spec.ln_class
    assert fused.data[2, 2, 3] == 4


def test_fuse_empty_inputs_all_background():
    spec = nm.parse_fusion_spec(SMALL_SPEC)
    shape = (4, 4, 4)
    fused = nm.fuse([("spleen", binary(shape, []))], binary(shape, []), spec)
    assert not fused.data.any()


def test_fuse_unknown_structure_named():
    spec = nm.parse_fusion_spec(SMALL_SPEC)
    shape = (2, 2, 2)
    with pytest.raises(nm.UnknownStructureError, match="pancreas"):
        nm.fuse([("pancreas", binary(shape, [(0, 0, 0)]))], binary(shape, []), spec)


def test_fuse_grid_mismatch_propagates():
    spec = nm.parse_fusion_spec(SMALL_SPEC)
    with pytest.raises(nm.GridMismatchError):
        nm.fuse([("spleen", binary((2, 2, 2), []))], binary((2, 2, 3), []), spec)


def test_extract_class_recovers_ln_mask():
    spec = nm.parse_fusion_spec(SMALL_SPEC)
    shape = (5, 5, 5)
    liver = binary(shape, [(1, 1, 1), (1, 1, 2)])
    ln = binary(shape, [(1, 1, 1), (3, 3, 3)])
    fused = nm.fuse([("liver", liver)], ln, spec)
    ln_out = nm.extract_class(fused, spec.ln_class)
    assert np.array_equal(ln_out.data != 0, ln.data != 0)


def test_extract_absent_class_empty():
    spec = nm.parse_fusion_spec(SMALL_SPEC)
    fused = nm.fuse([], binary((3, 3, 3), [(0, 0, 0)]), spec)
    assert not nm.extract_class(fused, 3).data.any()


@pytest.mark.parametrize("class_count", [None, 5])
@pytest.mark.parametrize("class_id", [-1, -254])
def test_extract_negative_class_rejected(class_count, class_id):
    # no voxel holds a negative id: the mask came out empty, and two empty
    # masks score a perfect Dice
    labels = make_volume(np.array([[[0, 1], [2, 4]]], np.uint8), kind="label",
                         class_count=class_count)
    with pytest.raises(nm.ValidationError, match=f"negative class id {class_id}"):
        nm.extract_class(labels, class_id)


def test_extract_class_beyond_declared_count_rejected():
    labels = make_volume(np.array([[[0, 1], [2, 4]]], np.uint8), kind="label", class_count=5)
    with pytest.raises(nm.ValidationError) as err:
        nm.extract_class(labels, 5)
    assert str(err.value) == "class id 5 outside declared class count 5"


def test_extract_background_is_complement():
    spec = nm.parse_fusion_spec(SMALL_SPEC)
    fused = nm.fuse([], binary((3, 3, 3), [(0, 0, 0), (1, 2, 1)]), spec)
    bg = nm.extract_class(fused, 0)
    assert np.array_equal(bg.data != 0, fused.data == 0)


def _random_scene(rng, spec, shape=(16, 16, 16)):
    names = [n for n in spec.group_map if spec.group_map[n] != spec.ln_class]
    anatomy = []
    for name in names:
        mask = (rng.random(shape) < rng.uniform(0.05, 0.3)).astype(np.uint8)
        anatomy.append((name, make_volume(mask, kind="label")))
    ln = make_volume((rng.random(shape) < 0.1).astype(np.uint8), kind="label")
    return anatomy, ln


@pytest.mark.parametrize("seed", range(5))
def test_precedence_replay_on_random_scenes(seed):
    rng = np.random.default_rng(seed)
    spec = nm.parse_fusion_spec(SMALL_SPEC)
    anatomy, ln = _random_scene(rng, spec)
    fused = nm.fuse(anatomy, ln, spec)

    sources: dict[int, np.ndarray] = {}
    for name, vol in anatomy:
        cid = spec.group_map[name]
        m = vol.data != 0
        sources[cid] = m | sources.get(cid, False)
    sources[spec.ln_class] = (ln.data != 0) | sources.get(spec.ln_class, False)
    expected = replay_precedence(sources, spec.precedence, fused.dims)
    assert np.array_equal(fused.data, expected)


@pytest.mark.parametrize("seed", range(3))
def test_partition_and_ln_supremacy(seed):
    rng = np.random.default_rng(100 + seed)
    spec = nm.parse_fusion_spec(SMALL_SPEC)
    anatomy, ln = _random_scene(rng, spec)
    fused = nm.fuse(anatomy, ln, spec)

    # extract_class over all ids partitions the grid
    cover = np.zeros(fused.dims, dtype=np.int64)
    for cid in range(spec.class_count + 1):
        cover += nm.extract_class(fused, cid).data
    assert np.array_equal(cover, np.ones(fused.dims, dtype=np.int64))

    # LN supremacy: every ln_mask voxel carries the LN class
    ln_out = nm.extract_class(fused, spec.ln_class).data != 0
    assert np.all(ln_out[ln.data != 0])
