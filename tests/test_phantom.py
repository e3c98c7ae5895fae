import numpy as np
import pytest

import nodemetry as nm
from nodemetry.phantom import PhantomNode, PhantomSpec, parse_phantom_spec


def single_node_spec(semiaxes, rotation=0.0, spacing=(1.0, 1.0, 1.0), dims=(48, 48, 32)):
    center = tuple((n - 1) * s / 2 for n, s in zip(dims, spacing))
    return PhantomSpec(dims, spacing, (PhantomNode(center, semiaxes, rotation),))


def test_axis_aligned_node_expected_sad():
    vol, expected = nm.generate(single_node_spec((9.0, 3.0, 6.0)))
    assert len(expected) == 1
    assert expected[0].sad_mm == pytest.approx(6.0)  # 2 * min(9, 3)
    assert expected[0].long_axis_mm == pytest.approx(18.0)
    assert expected[0].voxel_count == int(vol.data.sum())


def test_rotation_leaves_expected_sad():
    _, exp0 = nm.generate(single_node_spec((9.0, 3.0, 6.0), rotation=0.0))
    _, exp45 = nm.generate(single_node_spec((9.0, 3.0, 6.0), rotation=45.0))
    assert exp0[0].sad_mm == exp45[0].sad_mm == pytest.approx(6.0)


def test_measured_sad_matches_expected():
    # tolerance is one in-plane voxel extent: a voxel footprint projects up to
    # hypot(sx, sy) onto the caliper direction (reached at 45 degrees)
    for rotation in (0.0, 30.0, 45.0, 120.0):
        vol, expected = nm.generate(single_node_spec((9.0, 3.0, 6.0), rotation))
        cset = nm.label_components(vol, 26)
        assert cset.count == 1
        m = nm.measure_node(cset.voxels(1), vol)
        assert m.sad_mm == pytest.approx(expected[0].sad_mm, abs=float(np.hypot(1.0, 1.0)))


def test_determinism_bitwise():
    spec = single_node_spec((7.0, 4.0, 5.0), rotation=33.0)
    a, _ = nm.generate(spec)
    b, _ = nm.generate(spec)
    assert np.array_equal(a.data, b.data)
    assert a.data.tobytes() == b.data.tobytes()


def test_component_count_matches_nodes():
    spec = PhantomSpec((64, 64, 40), (1.0, 1.0, 1.0), (
        PhantomNode((15.0, 15.0, 12.0), (5.0, 3.0, 4.0), 0.0),
        PhantomNode((45.0, 45.0, 26.0), (6.0, 4.0, 5.0), 70.0),
    ))
    vol, expected = nm.generate(spec)
    cset = nm.label_components(vol, 26)
    assert cset.count == len(expected) == 2


def test_expected_order_matches_component_order():
    # node listed second sits earlier in scan order; expectations must follow
    spec = PhantomSpec((64, 64, 40), (1.0, 1.0, 1.0), (
        PhantomNode((45.0, 45.0, 26.0), (6.0, 4.0, 5.0), 0.0),
        PhantomNode((12.0, 12.0, 12.0), (5.0, 3.0, 4.0), 0.0),
    ))
    vol, expected = nm.generate(spec)
    cset = nm.label_components(vol, 26)
    for exp in expected:
        m = nm.measure_node(cset.voxels(exp.component_index), vol,
                            component_index=exp.component_index)
        assert m.voxel_count == exp.voxel_count
        assert m.sad_mm == pytest.approx(exp.sad_mm, abs=1.0)


def test_subvoxel_node_on_center_is_single_voxel():
    spec = PhantomSpec((9, 9, 9), (1.0, 1.0, 1.0),
                       (PhantomNode((4.0, 4.0, 4.0), (0.4, 0.4, 0.4)),))
    vol, expected = nm.generate(spec)
    assert expected[0].voxel_count == 1
    assert int(vol.data.sum()) == 1


def test_subvoxel_node_off_center_rejected():
    spec = PhantomSpec((9, 9, 9), (1.0, 1.0, 1.0),
                       (PhantomNode((4.5, 4.5, 4.5), (0.4, 0.4, 0.4)),))
    with pytest.raises(nm.ValidationError, match="no voxel"):
        nm.generate(spec)


def test_overlapping_nodes_rejected():
    spec = PhantomSpec((48, 48, 32), (1.0, 1.0, 1.0), (
        PhantomNode((20.0, 20.0, 15.0), (6.0, 6.0, 6.0)),
        PhantomNode((25.0, 20.0, 15.0), (6.0, 6.0, 6.0)),
    ))
    with pytest.raises(nm.ValidationError, match="overlap"):
        nm.generate(spec)


def test_node_exceeding_grid_rejected():
    spec = PhantomSpec((20, 20, 20), (1.0, 1.0, 1.0),
                       (PhantomNode((10.0, 10.0, 10.0), (15.0, 4.0, 4.0)),))
    with pytest.raises(nm.ValidationError, match="exceeds"):
        nm.generate(spec)


def test_volume_mm3_uses_spacing():
    spacing = (0.8, 0.8, 1.5)
    spec = single_node_spec((6.0, 4.0, 5.0), spacing=spacing, dims=(48, 48, 24))
    vol, expected = nm.generate(spec)
    assert expected[0].volume_mm3 == pytest.approx(
        expected[0].voxel_count * 0.8 * 0.8 * 1.5)


def test_random_spec_is_valid_and_deterministic():
    a = nm.random_spec((96, 96, 64), (1.0, 1.0, 1.0), 4, seed=11)
    b = nm.random_spec((96, 96, 64), (1.0, 1.0, 1.0), 4, seed=11)
    assert a == b
    vol, expected = nm.generate(a)
    assert nm.label_components(vol, 26).count == 4


def test_parse_phantom_spec_round_trip():
    text = """
    # two nodes
    dims = 48 48 32
    spacing = 1.0 1.0 1.0
    seed = 3
    node = 15 15 12  5 3 4  0
    node = 36 36 24  6 4 5  70
    """
    spec = parse_phantom_spec(text)
    assert spec.dims == (48, 48, 32)
    assert spec.seed == 3
    assert len(spec.nodes) == 2
    assert spec.nodes[1].rotation_deg == 70.0
    vol, expected = nm.generate(spec)
    assert len(expected) == 2


def test_parse_phantom_spec_errors():
    with pytest.raises(nm.ValidationError, match="dims"):
        parse_phantom_spec("spacing = 1 1 1\nnode = 1 1 1 1 1 1\n")
    with pytest.raises(nm.ValidationError, match="node"):
        parse_phantom_spec("dims = 4 4 4\nspacing = 1 1 1\n")
    with pytest.raises(nm.ValidationError, match="bad number"):
        parse_phantom_spec("dims = 4 4 x\nspacing = 1 1 1\nnode = 1 1 1 1 1 1\n")


@pytest.mark.parametrize("value, count", [("", 0), (" 1 2", 2)], ids=["none", "two"])
def test_phantom_seed_takes_one_integer(tmp_path, capsys, value, count):
    # `seed =` ended in an uncaught IndexError; `seed = 1 2` kept the 1
    from nodemetry.cli import main
    spec = tmp_path / "spec.txt"
    spec.write_text(f"dims = 24 24 24\nspacing = 1 1 1\nseed ={value}\nnode = 10 10 10 3 3 3\n")
    out = tmp_path / "ph.nii"
    assert main(["phantom", "--spec", str(spec), "--out", str(out)]) == 1
    assert f"error: line 3: seed needs one integer, got {count}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line", ["node = 10 10 10 nan 3 3", "node = nan 10 10 3 3 3",
                                  "node = 10 10 10 3 3 3 nan", "spacing = nan 1 1"],
                         ids=["semiaxis", "center", "rotation", "spacing"])
def test_nan_in_phantom_spec_exits_1(tmp_path, capsys, line):
    # each ended in an uncaught ValueError from rasterizing the node
    from nodemetry.cli import main
    lines = {"dims": "dims = 24 24 24", "spacing": "spacing = 1 1 1",
             "node": "node = 10 10 10 3 3 3"}
    lines[line.split()[0]] = line
    spec = tmp_path / "spec.txt"
    spec.write_text("\n".join(lines.values()) + "\n")
    out = tmp_path / "ph.nii"
    assert main(["phantom", "--spec", str(spec), "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_oversized_phantom_exits_1(tmp_path, capsys):
    # np.zeros of 10^15 voxels ended in an uncaught ArrayMemoryError; no
    # NIfTI-1 file holds an axis above 32767 voxels
    from nodemetry.cli import main
    spec = tmp_path / "spec.txt"
    spec.write_text("dims = 100000 100000 100000\nspacing = 1 1 1\nnode = 10 10 10 3 3 3\n")
    out = tmp_path / "ph.nii"
    assert main(["phantom", "--spec", str(spec), "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_phantom_out_of_memory_exits_2(tmp_path, monkeypatch, capsys):
    # dims within the NIfTI-1 limit whose grid does not fit in memory ended in
    # a traceback; the allocation is faked, since under overcommit a real one
    # can succeed
    from nodemetry.cli import main

    def no_memory(spec):
        raise MemoryError("Unable to allocate 24.6 TiB")

    monkeypatch.setattr("nodemetry.phantom.generate", no_memory)
    spec = tmp_path / "spec.txt"
    spec.write_text("dims = 30000 30000 30000\nspacing = 1 1 1\nnode = 10 10 10 3 3 3\n")
    out = tmp_path / "ph.nii"
    assert main(["phantom", "--spec", str(spec), "--out", str(out)]) == 2
    assert "error: out of memory: Unable to allocate 24.6 TiB" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("lines, message", [
    ("dims = 24 24 24\nspacing 1 1 1\n", "line 2: expected `key = values`, got 'spacing 1 1 1'"),
    ("dims = 24 24 24\nspacing = 1 1 1\nnode = 10 10 10\n",
     "line 3: node needs 6 or 7 numbers, got 3"),
    ("dims = 24 24 24\ncolour = red\n", "line 2: unknown key 'colour'"),
    ("dims = 24 24 24\nnode = 10 10 10 3 3 3\n", "phantom spec needs `spacing = sx sy sz`"),
], ids=["no-equals", "short-node", "unknown-key", "no-spacing"])
def test_phantom_spec_errors_exit_1(tmp_path, capsys, lines, message):
    from nodemetry.cli import main
    spec = tmp_path / "spec.txt"
    spec.write_text(lines)
    out = tmp_path / "ph.nii"
    assert main(["phantom", "--spec", str(spec), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_phantom_spec_not_utf8_exits_1(tmp_path, capsys):
    # a spec that is not UTF-8 ended in a UnicodeDecodeError traceback
    from nodemetry.cli import main
    spec = tmp_path / "spec.txt"
    spec.write_bytes(b"\xff\xfedims = 24 24 24\n")
    out, expected = tmp_path / "ph.nii", tmp_path / "expected.csv"
    assert main(["phantom", "--spec", str(spec), "--out", str(out),
                 "--out-expected", str(expected)]) == 1
    assert (capsys.readouterr().err
            == f"error: {spec}: not UTF-8 text (invalid start byte at byte 0)\n")
    assert not out.exists() and not expected.exists()


def test_phantom_spec_with_byte_order_mark_reads_as_without(tmp_path):
    # a leading UTF-8 byte-order mark, as some editors write, was read into
    # the first key: `line 1: unknown key '\ufeffdims'`, exit 1
    from nodemetry.cli import main
    text = b"dims = 24 24 24\nspacing = 1 1 1\nnode = 10 10 10 3 3 3\n"
    outputs = []
    for name, blob in (("plain", text), ("bom", b"\xef\xbb\xbf" + text)):
        spec, out, expected = (tmp_path / f"{name}{ext}" for ext in (".txt", ".nii", ".csv"))
        spec.write_bytes(blob)
        assert main(["phantom", "--spec", str(spec), "--out", str(out),
                     "--out-expected", str(expected)]) == 0
        outputs.append((out.read_bytes(), expected.read_bytes()))
    assert outputs[1] == outputs[0]


def test_not_utf8_offset_counts_the_byte_order_mark(tmp_path, capsys):
    # the offset is the bad byte's in the file, as a hex dump shows it
    # (utf-8-sig would count from after the mark, and say 9)
    from nodemetry.cli import main
    spec = tmp_path / "spec.txt"
    spec.write_bytes(b"\xef\xbb\xbfdims = 24\xff\n")
    assert main(["phantom", "--spec", str(spec), "--out", str(tmp_path / "ph.nii")]) == 1
    assert (capsys.readouterr().err
            == f"error: {spec}: not UTF-8 text (invalid start byte at byte 12)\n")


def test_random_spec_that_cannot_place_its_nodes_rejected():
    # on a 10^3 grid nearly every drawn node is too big, and is drawn again
    with pytest.raises(nm.ValidationError) as err:
        nm.random_spec((10, 10, 10), (1.0, 1.0, 1.0), 1, seed=0, max_tries=20)
    assert str(err.value) == "could not place 1 non-overlapping nodes in (10, 10, 10) (placed 0)"
