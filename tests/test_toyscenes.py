import hashlib

import numpy as np
import pytest

from advseg.labelmap import VOID
from advseg.toyscenes import (
    Dataset,
    SceneSpec,
    default_colors,
    generate_scene,
    load_dataset,
    load_sample,
    make_dataset,
    read_pgm,
    read_ppm,
    save_dataset,
    save_sample,
    write_pgm,
    write_ppm,
)


def test_generation_deterministic():
    spec = SceneSpec(seed=3)
    a = generate_scene(spec, 7)
    b = generate_scene(spec, 7)
    assert a.image.tobytes() == b.image.tobytes()
    assert a.labels.tobytes() == b.labels.tobytes()
    c = generate_scene(spec, 8)
    assert a.labels.tobytes() != c.labels.tobytes() or a.image.tobytes() != c.image.tobytes()


def test_class_fractions_over_corpus():
    spec = SceneSpec(seed=1)
    counts = np.zeros(spec.num_classes, dtype=np.int64)
    for i in range(100):
        lab = generate_scene(spec, i).labels
        for c in range(spec.num_classes):
            counts[c] += np.sum(lab == c)
    assert counts[0] == counts.max()  # background majority
    assert np.all(counts > 0)  # every class present somewhere


def test_image_range_and_labels_valid():
    spec = SceneSpec(seed=2)
    for i in range(5):
        s = generate_scene(spec, i)
        assert s.image.shape == (3, 64, 64)
        assert np.all(s.image >= 0.0) and np.all(s.image <= 1.0)
        valid = (s.labels == VOID) | (s.labels < spec.num_classes)
        assert np.all(valid)
        # the default one-pixel VOID border
        for edge in (s.labels[0], s.labels[-1], s.labels[:, 0], s.labels[:, -1]):
            assert np.all(edge == VOID)


def test_void_ribbons_around_shape_boundaries():
    spec = SceneSpec(seed=4, noise_sigma=0.0, void_border_px=0)
    s = generate_scene(spec, 1)
    lab = s.labels
    # wherever two different non-void labels touch, a ribbon should have
    # been placed instead, so no direct contact remains
    horiz = (lab[:, 1:] != lab[:, :-1]) & (lab[:, 1:] != VOID) & (lab[:, :-1] != VOID)
    vert = (lab[1:, :] != lab[:-1, :]) & (lab[1:, :] != VOID) & (lab[:-1, :] != VOID)
    assert not horiz.any() and not vert.any()
    assert (lab == VOID).any()


def test_default_colors_pairwise_separated():
    for c in (2, 3, 4):
        colors = np.asarray(default_colors(c))
        for i in range(c):
            for j in range(i + 1, c):
                assert np.all(np.abs(colors[i] - colors[j]) >= 0.3)
    with pytest.raises(ValueError):
        default_colors(5)


def test_scene_spec_rejects_class_counts_it_cannot_draw():
    for bad in (0, 1, 5):
        with pytest.raises(ValueError):
            SceneSpec(num_classes=bad)


@pytest.mark.parametrize("bad", [
    dict(height=4), dict(height=0), dict(width=4),
    dict(noise_sigma=-1.0), dict(noise_sigma=float("nan")),
    dict(noise_sigma=float("inf")),
    dict(texture_amp=-0.1), dict(texture_amp=float("nan")),
    dict(texture_amp=float("inf")),
    dict(seed=-1), dict(void_border_px=-1), dict(void_ribbon_px=-1),
])
def test_scene_spec_rejects_values_it_cannot_draw(bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        SceneSpec(**bad)


def test_void_border_leaves_a_labelled_pixel():
    # the border covers 2 * void_border_px rows and columns
    spec = SceneSpec(height=16, width=17, void_border_px=7, void_ribbon_px=0)
    labels = generate_scene(spec, 0).labels
    assert np.sum(labels != VOID) == 2 * 3
    with pytest.raises(ValueError, match="void_border_px=8 leaves no labelled pixel"):
        SceneSpec(height=16, width=17, void_border_px=8)


def test_smallest_extents_draw_every_scene():
    # 5 is the smallest extent at which generate_scene places a circle
    for extent in (5, 6, 7):
        spec = SceneSpec(height=extent, width=extent, seed=extent)
        for index in range(20):
            sample = generate_scene(spec, index)
            assert np.all(np.isfinite(sample.image))


@pytest.mark.parametrize("spec, digest", [
    (SceneSpec(), "0081dfb7420f72e0cddd612e311392686170ccaca24f23adae5b42c1027f8970"),
    (SceneSpec(height=16, width=16, num_classes=3),
     "e8a9457a6941603d0cb7d936091abb497c062b1394916e1d1ab5327b1bcc8c32"),
])
def test_generated_scenes_are_pinned_by_hash(spec, digest):
    """SHA-256 over what gen-data writes of each scene of a 4/2/2 dataset,
    train then val then test: the image quantized to 8 bits, then the label
    map. The digests were computed with numpy 2.4.6; a numpy whose random
    streams or rounding differ may give other scenes."""
    ds = make_dataset(spec, 4, 2, 2)
    h = hashlib.sha256()
    for s in ds.train + ds.val + ds.test:
        h.update(np.rint(s.image * 255).astype(np.uint8).tobytes())
        h.update(s.labels.astype(np.uint8).tobytes())
    assert h.hexdigest() == digest


def test_make_dataset_splits():
    spec = SceneSpec(seed=5, height=16, width=16)
    ds = make_dataset(spec, 4, 2, 3)
    assert len(ds.train) == 4 and len(ds.val) == 2 and len(ds.test) == 3
    ids = [s.id for s in ds.train + ds.val + ds.test]
    assert len(set(ids)) == 9
    again = make_dataset(spec, 4, 2, 3)
    for a, b in zip(ds.train + ds.val + ds.test, again.train + again.val + again.test):
        assert a.image.tobytes() == b.image.tobytes()


def test_val_distribution_matches_train():
    spec = SceneSpec(seed=6)
    ds = make_dataset(spec, 40, 40)

    def freqs(samples):
        f = np.zeros(spec.num_classes)
        for s in samples:
            for c in range(spec.num_classes):
                f[c] += np.sum(s.labels == c)
        return f / f.sum()

    ft, fv = freqs(ds.train), freqs(ds.val)
    assert np.all(np.abs(ft - fv) < 0.1)


def test_ppm_roundtrip_quantization(tmp_path):
    rng = np.random.default_rng(7)
    img = rng.uniform(size=(3, 9, 11))
    path = tmp_path / "img.ppm"
    write_ppm(path, img)
    back = read_ppm(path)
    assert back.shape == img.shape
    assert np.max(np.abs(back - img)) <= 0.5 / 255 + 1e-12


def test_pgm_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(8)
    lab = rng.integers(0, 4, size=(12, 10))
    lab[0, :] = VOID
    path = tmp_path / "lab.pgm"
    write_pgm(path, lab)
    np.testing.assert_array_equal(read_pgm(path, 4), lab)


def test_pgm_rejects_out_of_range_class(tmp_path):
    lab = np.full((4, 4), 7)
    path = tmp_path / "lab.pgm"
    write_pgm(path, lab)
    with pytest.raises(ValueError):
        read_pgm(path, num_classes=4)


def test_netpbm_rejects_malformed(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P3\n2 2\n255\n")
    with pytest.raises(ValueError):
        read_ppm(path)
    path.write_bytes(b"P6\n2 2\n255\n\x00\x00")
    with pytest.raises(ValueError):
        read_ppm(path)


def test_netpbm_handles_comments(tmp_path):
    path = tmp_path / "c.pgm"
    payload = bytes(range(4))
    path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + payload)
    lab = read_pgm(path)
    np.testing.assert_array_equal(lab, [[0, 1], [2, 3]])


def test_sample_roundtrip(tmp_path):
    spec = SceneSpec(seed=9, height=16, width=16)
    s = generate_scene(spec, 0)
    save_sample(s, tmp_path)
    back = load_sample(tmp_path, s.id, spec.num_classes)
    np.testing.assert_array_equal(back.labels, s.labels)
    assert np.max(np.abs(back.image - s.image)) <= 0.5 / 255 + 1e-12


def test_dataset_roundtrip_and_manifest(tmp_path):
    spec = SceneSpec(seed=10, height=16, width=16)
    ds = make_dataset(spec, 3, 2, 1)
    save_dataset(ds, tmp_path)
    manifest = (tmp_path / "manifest.txt").read_text().splitlines()
    assert len(manifest) == 6
    assert sum(1 for line in manifest if line.startswith("train ")) == 3
    back = load_dataset(tmp_path)
    assert isinstance(back, Dataset)
    assert [s.id for s in back.train] == [s.id for s in ds.train]
    np.testing.assert_array_equal(back.val[0].labels, ds.val[0].labels)


@pytest.mark.parametrize("line", ["bogus", "tset scene_00000", "train a b"])
def test_load_dataset_rejects_a_malformed_manifest_line(tmp_path, line):
    save_dataset(make_dataset(SceneSpec(seed=10, height=16, width=16), 1, 1), tmp_path)
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(manifest.read_text() + line + "\n")
    with pytest.raises(ValueError, match="manifest line"):
        load_dataset(tmp_path)


def test_dataset_save_rerun_identical_bytes(tmp_path):
    spec = SceneSpec(seed=11, height=16, width=16)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    save_dataset(make_dataset(spec, 2, 1), d1)
    save_dataset(make_dataset(spec, 2, 1), d2)
    for name in sorted(p.name for p in d1.iterdir()):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


def test_learnability_smoke_baseline_fits_scenes():
    """A plain cross-entropy segmenter must reach 0.85 train mIoU on 64
    scenes within 2000 iterations; this calibrates the dataset.

    Losses sum over pixels (divided by batch size only), which puts the
    workable learning-rate scale near 3e-4; rates of 1e-2 and above
    saturate the softmax within a few steps and the probability clamp then
    gates every gradient, freezing training at the majority-class collapse.
    """
    from advseg.training import TrainConfig, train_run

    ds = make_dataset(SceneSpec(seed=0), 64, 32)
    cfg = TrainConfig(slr=3e-4, alr=0.1, lam=0.0, scheme="fast", batch_size=4,
                      max_iters=2000, seed=0, eval_every=500)
    record = train_run(cfg, ds)
    assert record.status == "completed"
    train_rows = [row for row in record.rows if row["split"] == "train"]
    final_train_miou = train_rows[-1]["mean_iou"]
    assert final_train_miou >= 0.85, final_train_miou
