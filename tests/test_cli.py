import shutil
from dataclasses import dataclass, fields

import numpy as np
import pytest

import advseg.cli as cli
from advseg.encodings import EncodingKind
from advseg.labelmap import VOID
from advseg.layers import local_contrast_normalize
from advseg.tensor import Tensor
from advseg.toyscenes import (SceneSpec, load_dataset, read_pgm, read_ppm, write_pgm,
                              write_ppm)
from advseg.training import TrainConfig


def run(*argv):
    return cli.main(list(argv))


SMALL_DATA = ["--set", "height=16", "--set", "width=16", "--set", "num_classes=3",
              "--set", "n_train=4", "--set", "n_val=2", "--set", "n_test=2"]
SMALL_NET = ["--set", "num_classes=3", "--set", "channels_base=4",
             "--set", "n_context_layers=1", "--set", "adversary_capacity=light"]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    assert run("gen-data", "--out", str(d), *SMALL_DATA) == 0
    return d


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, data_dir):
    d = tmp_path_factory.mktemp("run")
    code = run("train", "--data", str(data_dir), "--out", str(d), *SMALL_NET,
               "--set", "max_iters=6", "--set", "eval_every=3",
               "--set", "lambda=1.0")
    assert code == 0
    return d


def test_gen_data_counts_and_manifest(data_dir):
    manifest = (data_dir / "manifest.txt").read_text().splitlines()
    assert len(manifest) == 8
    ppms = list(data_dir.glob("*.ppm"))
    pgms = list(data_dir.glob("*.pgm"))
    assert len(ppms) == 8 and len(pgms) == 8


def test_gen_data_rerun_identical_bytes(tmp_path, data_dir):
    other = tmp_path / "again"
    assert run("gen-data", "--out", str(other), *SMALL_DATA) == 0
    for name in sorted(p.name for p in data_dir.iterdir()):
        if name == "config.echo":
            continue
        assert (other / name).read_bytes() == (data_dir / name).read_bytes(), name


def test_gen_data_with_no_scenes_writes_an_empty_manifest(tmp_path, capsys):
    out = tmp_path / "empty"
    assert run("gen-data", "--out", str(out), "--set", "n_train=0",
               "--set", "n_val=0", "--set", "n_test=0") == 0
    assert capsys.readouterr().out == f"wrote 0 train / 0 val / 0 test scenes to {out}\n"
    assert (out / "manifest.txt").read_bytes() == b""
    ds = load_dataset(out)
    assert ds.train == ds.val == ds.test == []


def test_gen_data_unwritable_dir_fails():
    assert run("gen-data", "--out", "/proc/definitely/not/writable") == cli.EXIT_IO


def test_train_outputs(run_dir):
    names = sorted(p.name for p in run_dir.iterdir())
    assert names == ["adversary.ckpt", "config.echo", "run.log", "segmenter.ckpt"]
    log = (run_dir / "run.log").read_text().splitlines()
    assert log[0] == "status=completed"
    iters = [line.split()[0] for line in log[1:]]
    assert iters == sorted(iters, key=lambda s: int(s.split("=")[1]))


def test_train_override_reflected_in_echo(run_dir):
    echo = (run_dir / "config.echo").read_text()
    assert "lambda = 1.0" in echo
    assert "max_iters = 6" in echo


def test_train_missing_dataset_fails(tmp_path):
    code = run("train", "--data", str(tmp_path / "nope"), "--out",
               str(tmp_path / "out"), *SMALL_NET)
    assert code == cli.EXIT_IO


def test_train_divergence_maps_to_exit_2(tmp_path, data_dir, monkeypatch):
    # non-finite losses are unreachable with well-formed data (objectives
    # are clamp-bounded), so exercise the exit-code mapping directly
    import advseg.training as tr

    def fake_run(cfg, dataset):
        rec = tr.RunRecord()
        rec.status = "diverged"
        rec.diverged_at = 7
        rec.loss_history = [(7, tr.SEGMENTER, float("nan"))]
        return rec

    monkeypatch.setattr(cli.TR, "train_run", fake_run)
    code = run("train", "--data", str(data_dir), "--out",
               str(tmp_path / "div"), *SMALL_NET)
    assert code == cli.EXIT_DIVERGED
    assert (tmp_path / "div" / "run.log").read_text().startswith(
        "status=diverged diverged_at=7")


def test_train_initializes_networks_once(tmp_path, data_dir, monkeypatch):
    calls = []
    real = cli.TR.init_state
    monkeypatch.setattr(cli.TR, "init_state",
                        lambda cfg: calls.append(cfg) or real(cfg))
    code = run("train", "--data", str(data_dir), "--out", str(tmp_path / "once"),
               *SMALL_NET, "--set", "max_iters=2", "--set", "eval_every=2")
    assert code == 0
    assert len(calls) == 1


def test_eval_outputs_and_determinism(tmp_path, data_dir, run_dir):
    out1, out2 = tmp_path / "e1", tmp_path / "e2"
    for out in (out1, out2):
        code = run("eval", "--data", str(data_dir), "--ckpt", str(run_dir),
                   "--out", str(out), *SMALL_NET, "--set", "splits=val,test")
        assert code == 0
    for name in ("eval_val.csv", "eval_val.txt", "eval_test.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    rows = (out1 / "eval_val.csv").read_text().splitlines()
    assert rows[0] == "row,class,accuracy,bf_f1"
    # gen-data's scenes all hold VOID pixels, and boundary F1 scores fully
    # labelled images only
    assert rows[-2:] == ["aggregate,bf_std,na,", "aggregate,bf_images,0,"]
    summary = (out1 / "eval_val.txt").read_text()
    for key in ("pixel_acc=", "mean_class_acc=", "mean_iou=", "mean_bf=", "bf_std=",
                "bf_images="):
        assert key in summary


def test_eval_missing_checkpoint_fails(tmp_path, data_dir):
    code = run("eval", "--data", str(data_dir), "--ckpt", str(tmp_path),
               "--out", str(tmp_path / "out"), *SMALL_NET)
    assert code == cli.EXIT_IO


def _export_maps_equal_graph_forward(tmp_path, monkeypatch, data_dir, ckpt, window):
    """export-maps segments through metrics.segment, the inference pass that
    evaluation also uses, and its probability maps are those of a
    graph-building forward of the checkpoint on each scene's image,
    contrast-normalized over ``window`` unless that is 0."""
    passes = []
    real_segment = cli.M.segment
    monkeypatch.setattr(cli.M, "segment",
                        lambda *a, **k: passes.append(a[2]) or real_segment(*a, **k))
    out = tmp_path / "maps"
    assert run("export-maps", "--data", str(data_dir), "--ckpt", str(ckpt),
               "--out", str(out), *SMALL_NET, "--set", "export_count=2") == 0
    assert len(passes) == 1
    spec = cli.N.build_segmenter(3, channels_base=4, n_context_layers=1)
    params = cli.N.load_params(ckpt / "segmenter.ckpt", spec)
    for sample in cli.D.load_dataset(data_dir).val[:2]:
        image = sample.image
        if window:
            image = local_contrast_normalize(image, window)
        probs = cli.N.forward(spec, params, Tensor(image[None]))
        assert probs.node is not None
        for c in range(3):
            want = np.rint(255.0 * probs.data[0, c]).astype(np.int64)
            got = read_pgm(out / f"{sample.id}_class{c}.pgm")
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(
            read_pgm(out / f"{sample.id}_argmax.pgm"),
            cli.M.predict_labels(probs.data[0], upsample=cli.N.receptive_field(spec)[2]))


def test_export_maps_equal_graph_forward_of_checkpoint(tmp_path, monkeypatch,
                                                      data_dir, run_dir):
    _export_maps_equal_graph_forward(tmp_path, monkeypatch, data_dir, run_dir, 0)


def test_export_maps_of_an_lcn_checkpoint_equal_graph_forward_of_normalized_scenes(
        tmp_path, monkeypatch, data_dir, run_dir_lcn):
    _export_maps_equal_graph_forward(tmp_path, monkeypatch, data_dir, run_dir_lcn, 3)


def test_export_maps_file_count_and_quantization(tmp_path, data_dir, run_dir):
    out = tmp_path / "maps"
    code = run("export-maps", "--data", str(data_dir), "--ckpt", str(run_dir),
               "--out", str(out), *SMALL_NET, "--set", "export_count=2")
    assert code == 0
    pgms = sorted(out.glob("*.pgm"))
    ppms = sorted(out.glob("*.ppm"))
    # per image: 3 class maps + 1 argmax, plus 1 overlay
    assert len(pgms) == 2 * (3 + 1)
    assert len(ppms) == 2
    class0 = read_pgm(next(p for p in pgms if "class0" in p.name))
    assert class0.min() >= 0 and class0.max() <= 255
    overlay = read_ppm(ppms[0])
    assert overlay.shape[0] == 3


@pytest.fixture(scope="module")
def run_dir_4(tmp_path_factory):
    """A 4-class model and dataset, for the class-count guard."""
    data = tmp_path_factory.mktemp("data4")
    assert run("gen-data", "--out", str(data), *SMALL_DATA,
               "--set", "num_classes=4") == 0
    out = tmp_path_factory.mktemp("run4")
    assert run("train", "--data", str(data), "--out", str(out), *SMALL_NET,
               "--set", "num_classes=4", "--set", "max_iters=1",
               "--set", "eval_every=1") == 0
    return data, out


@pytest.mark.parametrize("command", ["eval", "export-maps"])
@pytest.mark.parametrize("num_classes", [3, 5])
def test_class_count_mismatch_rejected(tmp_path, capsys, run_dir_4, command,
                                       num_classes):
    data, ckpt = run_dir_4
    out = tmp_path / "out"
    code = run(command, "--data", str(data), "--ckpt", str(ckpt), "--out",
               str(out), *SMALL_NET, "--set", f"num_classes={num_classes}")
    assert code == cli.EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"num_classes={num_classes}" in err and "num_classes=4" in err
    assert not out.exists()


@pytest.fixture(scope="module")
def run_dir_lcn(tmp_path_factory, data_dir):
    """A model trained with local contrast normalization over 3x3 windows."""
    out = tmp_path_factory.mktemp("run_lcn")
    assert run("train", "--data", str(data_dir), "--out", str(out), *SMALL_NET,
               "--set", "lcn_window=3", "--set", "max_iters=2",
               "--set", "eval_every=2") == 0
    return out


@pytest.mark.parametrize("command", ["eval", "export-maps"])
def test_checkpoint_preprocessing_used_without_flag(tmp_path, data_dir,
                                                    run_dir_lcn, command):
    silent, explicit = tmp_path / "silent", tmp_path / "explicit"
    for out, extra in ((silent, []), (explicit, ["--set", "lcn_window=3"])):
        assert run(command, "--data", str(data_dir), "--ckpt", str(run_dir_lcn),
                   "--out", str(out), *SMALL_NET, *extra) == 0
    assert "lcn_window = 3" in (silent / "config.echo").read_text()
    names = sorted(p.name for p in silent.iterdir())
    assert names == sorted(p.name for p in explicit.iterdir())
    for name in names:
        assert (silent / name).read_bytes() == (explicit / name).read_bytes(), name


@pytest.mark.parametrize("command", ["eval", "export-maps"])
def test_conflicting_preprocessing_rejected(tmp_path, capsys, data_dir,
                                            run_dir_lcn, command):
    out = tmp_path / "out"
    code = run(command, "--data", str(data_dir), "--ckpt", str(run_dir_lcn),
               "--out", str(out), *SMALL_NET, "--set", "lcn_window=5")
    assert code == cli.EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "lcn_window=5" in err and "lcn_window=3" in err
    assert not out.exists()


# the segmenter's width and depth, without the adversary keys that eval and
# export-maps do not read from the checkpoint's echo
SMALL_SEGMENTER = ["--set", "num_classes=3", "--set", "channels_base=4",
                   "--set", "n_context_layers=1"]


@pytest.mark.parametrize("command", ["eval", "export-maps"])
def test_checkpoint_architecture_used_without_flags(tmp_path, data_dir, run_dir,
                                                    command):
    silent, explicit = tmp_path / "silent", tmp_path / "explicit"
    for out, extra in ((silent, []), (explicit, SMALL_SEGMENTER)):
        assert run(command, "--data", str(data_dir), "--ckpt", str(run_dir),
                   "--out", str(out), *extra) == 0
    echo = (silent / "config.echo").read_text()
    assert "channels_base = 4" in echo and "n_context_layers = 1" in echo
    names = sorted(p.name for p in silent.iterdir())
    assert names == sorted(p.name for p in explicit.iterdir())
    for name in names:
        assert (silent / name).read_bytes() == (explicit / name).read_bytes(), name


@pytest.mark.parametrize("command", ["eval", "export-maps"])
@pytest.mark.parametrize("key, value", [("channels_base", "8"),
                                        ("n_context_layers", "2")])
def test_conflicting_architecture_rejected(tmp_path, capsys, data_dir, run_dir,
                                           command, key, value):
    out = tmp_path / "out"
    code = run(command, "--data", str(data_dir), "--ckpt", str(run_dir),
               "--out", str(out), "--set", f"{key}={value}")
    assert code == cli.EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{key}={value}" in err and f"trained with {key}=" in err
    assert not out.exists()


@pytest.fixture()
def fast_gradcheck(monkeypatch):
    # the end-to-end composition cases dominate suite runtime and are
    # covered by the acceptance gate; the CLI tests exercise table format,
    # exit codes, and the corruption mechanism on the cheap sections
    import advseg.gradcheck as G

    def empty():
        return iter(())

    monkeypatch.setattr(G, "_composition_cases", empty)
    monkeypatch.setattr(G, "_encoding_cases", empty)


def test_gradcheck_cli_pass(capsys, fast_gradcheck):
    assert run("gradcheck") == 0
    out = capsys.readouterr().out
    assert "all passed" in out
    for op in ("add", "mul", "conv2d", "maxpool2", "channel_softmax",
               "mce_loss", "bce_loss_t1"):
        assert op in out


def test_gradcheck_cli_negative_control(capsys, fast_gradcheck):
    assert run("gradcheck", "--corrupt", "mul") == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["nosuchop", "relu", "MUL"])
def test_gradcheck_cli_unknown_op_kind_exits_1_without_a_table(capsys, name):
    assert run("gradcheck", "--corrupt", name) == cli.EXIT_FAIL
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot corrupt {name!r}: ") and err.count("\n") == 1
    # the accepted names are the 16 op kinds the cases record
    kinds = err.split("the op kinds ")[1].strip().split(", ")
    assert len(kinds) == 16 and kinds == sorted(kinds)
    assert kinds[0] == "add" and kinds[-1] == "sum"
    assert {"mul", "conv2d", "maxpool2", "max_with_scalar"} <= set(kinds)


def test_grid_cli(tmp_path, data_dir):
    out = tmp_path / "grid"
    code = run("grid", "--data", str(data_dir), "--out", str(out),
               *SMALL_NET, "--set", "max_iters=2", "--set", "eval_every=2",
               "--slr", "0.001,0.002", "--alr", "0.05", "--lam", "0.0")
    assert code == 0
    lines = (out / "grid.log").read_text().splitlines()
    assert len(lines) == 2
    assert all("val_miou=" in line for line in lines)


def test_grid_writes_the_same_log_and_best_line_whatever_the_value_order(
        tmp_path, capsys, data_dir):
    outputs = []
    for slrs in ("0.001,0.002", "0.002,0.001"):
        out = tmp_path / slrs
        assert run("grid", "--data", str(data_dir), "--out", str(out), *SMALL_NET,
                   "--set", "max_iters=2", "--set", "eval_every=2",
                   "--slr", slrs, "--alr", "0.05", "--lam", "0.0,1.0") == 0
        outputs.append(((out / "grid.log").read_text(), capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    assert outputs[0][1].startswith("best: ")


def test_grid_breaks_exact_ties_to_the_smallest_slr_alr_lambda(tmp_path, capsys,
                                                               data_dir, monkeypatch):
    def tied(cfg, dataset):
        record = cli.TR.RunRecord()
        record.best_val_miou, record.best_val_mbf = 0.5, 0.25
        return record

    monkeypatch.setattr(cli.TR, "train_run", tied)
    assert run("grid", "--data", str(data_dir), "--out", str(tmp_path / "grid"),
               *SMALL_NET, "--slr", "0.02,0.01", "--alr", "0.2,0.05",
               "--lam", "1.0,0.0") == 0
    assert capsys.readouterr().out == ("best: slr=0.01 alr=0.05 lambda=0 "
                                       "val_miou=0.500000\n")


def test_defaults_are_the_dataclass_defaults():
    assert cli.train_config_from(cli.DEFAULTS) == TrainConfig()
    assert cli.scene_spec_from(cli.DEFAULTS) == SceneSpec()


def test_every_config_field_has_exactly_one_key():
    def names(cls, *skip):
        return sorted(f.name for f in fields(cls) if f.name not in skip)

    assert sorted(cli.TRAIN_KEYS.values()) == names(TrainConfig, "encoding")
    assert sorted(cli.ENCODING_KEYS.values()) == names(EncodingKind)
    assert sorted(cli.SCENE_KEYS.values()) == names(SceneSpec)
    # num_classes sets both the scenes and the networks
    assert set(cli.SCENE_KEYS) & set(cli.TRAIN_KEYS) == {"num_classes"}
    assert not set(cli.ENCODING_KEYS) & (set(cli.SCENE_KEYS) | set(cli.TRAIN_KEYS))
    command_keys = {"n_train", "n_val", "n_test", "splits", "export_count"}
    assert set(cli.DEFAULTS) == (set(cli.SCENE_KEYS) | set(cli.ENCODING_KEYS)
                                 | set(cli.TRAIN_KEYS) | command_keys)


def test_a_float_key_given_an_integer_parses_to_a_float():
    tcfg = cli.train_config_from({**cli.DEFAULTS, "lambda": "1", "tau": "1", "slr": "2"})
    assert (tcfg.lam, tcfg.encoding.tau, tcfg.slr) == (1.0, 1.0, 2.0)
    assert all(type(v) is float for v in (tcfg.lam, tcfg.encoding.tau, tcfg.slr))


def test_a_value_parses_by_its_field_annotation_not_its_default():
    @dataclass(frozen=True)
    class Knobs:
        rate: float = 0  # an integer default
        steps: int = 3
        on: bool = False

    keys = {"rate": "rate", "steps": "steps", "on": "on"}
    assert cli._from_config(Knobs, keys, {"rate": "0.5", "steps": "4", "on": "yes"}) \
        == Knobs(0.5, 4, True)


def test_unknown_config_key_rejected(tmp_path):
    code = run("gen-data", "--out", str(tmp_path / "d"), "--set", "tpyo=3")
    assert code == cli.EXIT_FAIL


def test_adversary_head_key_is_gone(tmp_path, capsys, data_dir):
    out = tmp_path / "out"
    code = run("train", "--data", str(data_dir), "--out", str(out), *SMALL_NET,
               "--set", "adversary_head=sigmoid")
    assert code == cli.EXIT_FAIL
    assert "unknown config keys" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def data_dirs_with_empty_split(tmp_path_factory):
    dirs = {}
    for split in ("train", "val"):
        d = tmp_path_factory.mktemp(f"no_{split}")
        assert run("gen-data", "--out", str(d), *SMALL_DATA,
                   "--set", f"n_{split}=0") == 0
        dirs[split] = d
    return dirs


@pytest.mark.parametrize("split", ["train", "val"])
@pytest.mark.parametrize("command", ["train", "grid", "eval"])
def test_empty_split_exits_1_before_writing(tmp_path, capsys, run_dir,
                                            data_dirs_with_empty_split, split,
                                            command):
    extra = {"train": [],
             "grid": ["--slr", "0.001", "--alr", "0.05", "--lam", "0.0"],
             "eval": ["--ckpt", str(run_dir), "--set", f"splits=test,{split}"]}
    out = tmp_path / "out"
    code = run(command, "--data", str(data_dirs_with_empty_split[split]),
               "--out", str(out), *SMALL_NET, *extra[command])
    assert code == cli.EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"split '{split}'" in err and "empty" in err
    assert not out.exists()


def test_eval_unknown_split_exits_1_before_writing(tmp_path, capsys, data_dir,
                                                   run_dir):
    out = tmp_path / "out"
    code = run("eval", "--data", str(data_dir), "--ckpt", str(run_dir),
               "--out", str(out), *SMALL_NET, "--set", "splits=val,tset")
    assert code == cli.EXIT_FAIL
    err = capsys.readouterr().err
    assert err == "error: unknown split 'tset'\n"
    assert not out.exists()


def test_config_file_and_override_precedence(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("# experiment\nheight = 16\nwidth = 16\nn_train = 2\n"
                   "n_val = 1\nn_test = 0\nnum_classes = 3\n")
    out = tmp_path / "d"
    assert run("gen-data", "--config", str(cfg), "--out", str(out),
               "--set", "n_train=3") == 0
    echo = (out / "config.echo").read_text()
    assert "n_train = 3" in echo  # override wins
    assert "height = 16" in echo
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert len(manifest) == 4


def test_echoed_config_reproduces_run(tmp_path, data_dir):
    out1 = tmp_path / "r1"
    assert run("train", "--data", str(data_dir), "--out", str(out1), *SMALL_NET,
               "--set", "max_iters=4", "--set", "eval_every=2") == 0
    out2 = tmp_path / "r2"
    assert run("train", "--data", str(data_dir), "--out", str(out2),
               "--config", str(out1 / "config.echo")) == 0
    assert (out1 / "run.log").read_bytes() == (out2 / "run.log").read_bytes()
    assert (out1 / "segmenter.ckpt").read_bytes() == (out2 / "segmenter.ckpt").read_bytes()


@pytest.mark.parametrize("command, extra", [
    ("gen-data", ["--set", "height=abc"]),
    ("gen-data", ["--set", "n_val=1.5"]),
    ("train", ["--set", "max_iters=abc"]),
    ("train", ["--set", "scheme=bogus"]),
    ("train", ["--set", "tau=2"]),
    ("grid", ["--slr", "0.001,abc", "--alr", "0.05", "--lam", "0.0"]),
    ("grid", ["--slr", "0.001", "--alr", "-0.05", "--lam", "0.0"]),
    ("eval", ["--set", "num_classes=abc"]),
    ("export-maps", ["--set", "export_count=many"]),
    ("train", ["--set", "eval_every=0"]),
    ("train", ["--set", "batch_size=0"]),
    ("train", ["--set", "max_iters=-1"]),
    ("train", ["--set", "lcn_window=4"]),
    ("train", ["--set", "lcn_window=1"]),
    ("grid", ["--set", "eval_every=0", "--slr", "0.001", "--alr", "0.05",
              "--lam", "0.0"]),
    ("export-maps", ["--set", "export_count=-1"]),
    ("train", ["--set", "adversary_fov=bogus"]),
    ("train", ["--set", "adversary_capacity=heavy"]),
    ("train", ["--set", "num_classes=1"]),
    ("train", ["--set", "channels_base=0"]),
    ("train", ["--set", "encoding=scaling", "--set", "tau=0.25"]),
    ("train", ["--set", "n_context_layers=-1"]),
    ("grid", ["--set", "adversary_capacity=heavy", "--slr", "0.001", "--alr",
              "0.05", "--lam", "0.0"]),
    ("eval", ["--set", "adversary_fov=bogus"]),
    ("export-maps", ["--set", "n_context_layers=-1"]),
    ("eval", ["--set", "channels_base=0"]),
    ("gen-data", ["--set", "num_classes=5"]),
    ("gen-data", ["--set", "num_classes=0"]),
    ("train", ["--set", "lambda=-1"]),
    ("train", ["--set", "lambda=nan"]),
    ("train", ["--set", "lambda=inf"]),
    ("train", ["--set", "slr=nan", "--set", "max_iters=2"]),
    ("train", ["--set", "alr=nan", "--set", "max_iters=4"]),
    ("grid", ["--slr", "0.001", "--alr", "0.05", "--lam", "0.0,-1"]),
    ("grid", ["--slr", "0.001", "--alr", "0.05", "--lam", "nan"]),
    ("grid", ["--slr", "0.001", "--alr", "0.05", "--lam", "inf"]),
    ("grid", ["--slr", "nan", "--alr", "0.05", "--lam", "0.0"]),
    ("grid", ["--slr", "0.001", "--alr", "nan", "--lam", "0.0"]),
    ("gen-data", ["--set", "height=4"]),
    ("gen-data", ["--set", "height=0"]),
    ("gen-data", ["--set", "width=4"]),
    ("gen-data", ["--set", "noise_sigma=-1"]),
    ("gen-data", ["--set", "noise_sigma=nan"]),
    ("gen-data", ["--set", "texture_amp=inf"]),
    ("gen-data", ["--set", "texture_amp=-0.1"]),
    ("gen-data", ["--set", "texture_amp=nan"]),
    ("gen-data", ["--set", "data_seed=-1"]),
    ("gen-data", ["--set", "n_train=-1"]),
    ("gen-data", ["--set", "void_border_px=-1"]),
    ("gen-data", ["--set", "void_ribbon_px=-1"]),
    ("train", ["--set", "seed=-1"]),
    ("grid", ["--set", "seed=-1", "--slr", "0.001", "--alr", "0.05",
              "--lam", "0.0"]),
    ("gen-data", ["--set", "height=16", "--set", "width=16",
                  "--set", "void_border_px=8"]),
    ("gen-data", ["--set", "void_border_px=32"]),
    ("train", ["--set", "include_image=maybe"]),
    # ribbons 8 pixels wide cover every pixel of a 16x16 scene
    ("gen-data", ["--set", "height=16", "--set", "width=16", "--set", "void_ribbon_px=8",
                  "--set", "n_train=4", "--set", "n_val=2"]),
    # no scene of one class can be trained or evaluated
    ("gen-data", ["--set", "num_classes=1"]),
    # dilation 16 on the 8-pixel feature maps of 16x16 scenes
    ("train", ["--set", "num_classes=3", "--set", "n_context_layers=5",
               "--set", "max_iters=2", "--set", "eval_every=2"]),
    ("grid", ["--set", "num_classes=3", "--set", "n_context_layers=5",
              "--set", "max_iters=2", "--set", "eval_every=2",
              "--slr", "0.001", "--alr", "0.05", "--lam", "0.0"]),
])
def test_malformed_config_value_exits_1_before_writing(tmp_path, capsys, data_dir,
                                                       run_dir, command, extra):
    out = tmp_path / "out"
    where = {"gen-data": [], "train": ["--data", str(data_dir)],
             "grid": ["--data", str(data_dir)],
             "eval": ["--data", str(data_dir), "--ckpt", str(run_dir)],
             "export-maps": ["--data", str(data_dir), "--ckpt", str(run_dir)]}
    assert run(command, *where[command], "--out", str(out), *extra) == cli.EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config value: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


def test_gen_data_class_count_message_states_the_range(tmp_path, capsys):
    out = tmp_path / "out"
    assert run("gen-data", "--out", str(out), "--set", "num_classes=5") == cli.EXIT_FAIL
    assert capsys.readouterr().err == ("error: invalid config value: generated scenes "
                                       "have 2 to 4 classes, got num_classes=5\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "grid", "eval", "export-maps"])
def test_lcn_window_larger_than_images_exits_1_before_writing(tmp_path, capsys,
                                                              data_dir, run_dir,
                                                              command):
    # a checkpoint whose echo says it was trained with 17x17 windows, as on
    # images larger than the 16x16 ones of data_dir
    ckpt = shutil.copytree(run_dir, tmp_path / "ckpt")
    echo = ckpt / "config.echo"
    echo.write_text(echo.read_text().replace("lcn_window = 0", "lcn_window = 17"))
    extra = {"train": ["--set", "lcn_window=17"],
             "grid": ["--set", "lcn_window=17", "--slr", "0.001", "--alr", "0.05",
                      "--lam", "0.0"],
             "eval": ["--ckpt", str(ckpt)],
             "export-maps": ["--ckpt", str(ckpt)]}
    out = tmp_path / "out"
    code = run(command, "--data", str(data_dir), "--out", str(out), *SMALL_NET,
               *extra[command])
    assert code == cli.EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config value: lcn_window=17 exceeds the "
                          "16-pixel extent") and err.count("\n") == 1
    assert not out.exists()


def _truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _bad_header(path):
    path.write_bytes(b"ADVSEG-PARAMS 9" + path.read_bytes()[15:])


def _other_shapes(path):
    spec = cli.N.build_segmenter(3, channels_base=2, n_context_layers=1)
    cli.N.save_params(cli.N.init_params(spec, 0), path)


def _echo_other_width(path):
    echo = path.with_name("config.echo")
    echo.write_text(echo.read_text().replace("channels_base = 4", "channels_base = 8"))


def _echo_other_depth(path):
    echo = path.with_name("config.echo")
    echo.write_text(echo.read_text().replace("n_context_layers = 1",
                                             "n_context_layers = 2"))


@pytest.mark.parametrize("corrupt, message", [
    (_truncate, "payload"), (_bad_header, "header"), (_other_shapes, "shape"),
    (_echo_other_width, "shape"), (_echo_other_depth, "shape"),
])
@pytest.mark.parametrize("command", ["eval", "export-maps"])
def test_corrupt_checkpoint_exits_3_before_writing(tmp_path, capsys, data_dir,
                                                   run_dir, command, corrupt,
                                                   message):
    # no architecture flags: a config.echo edited to another segmenter is
    # then caught by the checkpoint's parameter shapes
    ckpt = shutil.copytree(run_dir, tmp_path / "ckpt")
    corrupt(ckpt / "segmenter.ckpt")
    out = tmp_path / "out"
    code = run(command, "--data", str(data_dir), "--ckpt", str(ckpt),
               "--out", str(out))
    assert code == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith(f"error: corrupt checkpoint {ckpt / 'segmenter.ckpt'}: ")
    assert err.count("\n") == 1
    assert message in err
    assert not out.exists()


def test_format_1_checkpoint_exits_3_naming_its_header(tmp_path, capsys, data_dir,
                                                       run_dir):
    # checkpoints written before format 2 are not read: the error names the
    # header that was found
    ckpt = shutil.copytree(run_dir, tmp_path / "ckpt")
    path = ckpt / "segmenter.ckpt"
    path.write_bytes(path.read_bytes().replace(b"ADVSEG-PARAMS 2", b"ADVSEG-PARAMS 1", 1))
    out = tmp_path / "out"
    code = run("eval", "--data", str(data_dir), "--ckpt", str(ckpt), "--out", str(out))
    assert code == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err == (f"error: corrupt checkpoint {path}: bad checkpoint header "
                   "'ADVSEG-PARAMS 1', expected 'ADVSEG-PARAMS 2'\n")
    assert not out.exists()


def _truncate_train_labels(data):
    _truncate(data / "scene_00000.pgm")


def _truncate_val_image(data):
    _truncate(data / "scene_00004.ppm")


def _bogus_manifest_line(data):
    manifest = data / "manifest.txt"
    manifest.write_text(manifest.read_text() + "bogus\n")


def _non_integer_meta(data):
    meta = data / "meta.cfg"
    meta.write_text(meta.read_text().replace("height = 16", "height = x"))


def _small_val_labels(data):
    write_pgm(data / "scene_00004.pgm", np.zeros((8, 8), dtype=np.int64))


def _narrow_train_image(data):
    image = read_ppm(data / "scene_00000.ppm")
    write_ppm(data / "scene_00000.ppm", image[:, :, :8])


@pytest.mark.parametrize("corrupt, message", [
    (_truncate_train_labels, "truncated netpbm payload"),
    (_truncate_val_image, "truncated netpbm payload"),
    (_bogus_manifest_line, "manifest line 'bogus'"),
    (_non_integer_meta, "invalid literal for int()"),
    (_small_val_labels, "sample scene_00004: image (3, 16, 16) and label map (8, 8)"),
    (_narrow_train_image, "sample scene_00000: image (3, 16, 8) and label map (16, 16)"),
])
@pytest.mark.parametrize("command", ["train", "grid", "eval", "export-maps"])
def test_corrupt_dataset_exits_3_before_writing(tmp_path, capsys, data_dir, run_dir,
                                                command, corrupt, message):
    data = shutil.copytree(data_dir, tmp_path / "data")
    corrupt(data)
    extra = {"train": [],
             "grid": ["--slr", "0.001", "--alr", "0.05", "--lam", "0.0"],
             "eval": ["--ckpt", str(run_dir)],
             "export-maps": ["--ckpt", str(run_dir)]}
    out = tmp_path / "out"
    code = run(command, "--data", str(data), "--out", str(out), *SMALL_NET,
               *extra[command])
    assert code == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith(f"error: corrupt dataset in {data}: ")
    assert err.count("\n") == 1 and message in err
    assert not out.exists()


@pytest.mark.parametrize("split", ["train", "val"])
@pytest.mark.parametrize("command", ["train", "grid", "eval"])
def test_split_without_a_labelled_pixel_exits_1_before_writing(
        tmp_path, capsys, data_dir, run_dir, command, split):
    data = shutil.copytree(data_dir, tmp_path / "data")
    for line in (data / "manifest.txt").read_text().splitlines():
        if line.startswith(f"{split} "):
            write_pgm(data / f"{line.split()[1]}.pgm",
                      np.full((16, 16), VOID, dtype=np.int64))
    extra = {"train": [],
             "grid": ["--slr", "0.001", "--alr", "0.05", "--lam", "0.0"],
             "eval": ["--ckpt", str(run_dir), "--set", f"splits={split}"]}
    out = tmp_path / "out"
    code = run(command, "--data", str(data), "--out", str(out), *SMALL_NET,
               *extra[command])
    assert code == cli.EXIT_FAIL
    assert capsys.readouterr().err == (f"error: split '{split}' of {data} has no "
                                       "labelled pixel\n")
    assert not out.exists()


@pytest.mark.parametrize("command, data_classes, ckpt_classes", [
    ("train", 4, None), ("grid", 4, None),
    ("eval", 4, 3), ("export-maps", 4, 3),
    ("eval", 3, 4), ("export-maps", 3, 4),
])
def test_dataset_class_count_mismatch_exits_1_before_writing(
        tmp_path, capsys, data_dir, run_dir, run_dir_4, command, data_classes,
        ckpt_classes):
    # SMALL_NET trains 3 classes; run_dir_4 holds 4-class data and a
    # 4-class checkpoint, data_dir and run_dir 3-class ones
    data = {3: data_dir, 4: run_dir_4[0]}[data_classes]
    if ckpt_classes is None:
        extra = SMALL_NET + (["--slr", "0.001", "--alr", "0.05", "--lam", "0.0"]
                             if command == "grid" else [])
    else:
        extra = ["--ckpt", str({3: run_dir, 4: run_dir_4[1]}[ckpt_classes])]
    out = tmp_path / "out"
    code = run(command, "--data", str(data), "--out", str(out), *extra)
    assert code == cli.EXIT_FAIL
    err = capsys.readouterr().err
    trained = ckpt_classes or 3
    assert err == (f"error: num_classes={trained}, but the dataset in {data} "
                   f"has num_classes={data_classes}\n")
    assert not out.exists()


@pytest.fixture(scope="module")
def odd_data_dirs(tmp_path_factory):
    """3-class datasets of 15x15 and 12x12 images."""
    dirs = {}
    for extent in (15, 12):
        d = tmp_path_factory.mktemp(f"data{extent}")
        assert run("gen-data", "--out", str(d), *SMALL_DATA,
                   "--set", f"height={extent}", "--set", f"width={extent}") == 0
        dirs[extent] = d
    return dirs


@pytest.mark.parametrize("command, extent, extra, stride", [
    ("train", 15, [], 2),
    ("train", 12, ["--set", "lambda=1.0"], 8),
    ("grid", 15, ["--slr", "0.001", "--alr", "0.05", "--lam", "0.0"], 2),
    ("grid", 12, ["--slr", "0.001", "--alr", "0.05", "--lam", "0.0,1.0"], 8),
    ("eval", 15, [], 2),
    ("export-maps", 15, [], 2),
])
def test_extents_the_networks_cannot_pool_exit_1_before_writing(
        tmp_path, capsys, run_dir, odd_data_dirs, command, extent, extra, stride):
    data = odd_data_dirs[extent]
    if command in ("eval", "export-maps"):
        extra = ["--ckpt", str(run_dir)]
    out = tmp_path / "out"
    code = run(command, "--data", str(data), "--out", str(out), *SMALL_NET, *extra)
    assert code == cli.EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith(f"error: the {extent}x{extent} images in {data} do not "
                          f"pool evenly: extents must be multiples of {stride}, ")
    assert err.count("\n") == 1
    assert ("adversary" in err) == (stride == 8)
    assert not out.exists()


def test_extents_the_segmenter_pools_train_at_lambda_0(tmp_path, odd_data_dirs):
    # 12 = 2 * 6: the segmenter pools 12x12 images; only the adversary,
    # which runs at lambda > 0 alone, cannot
    assert run("train", "--data", str(odd_data_dirs[12]), "--out",
               str(tmp_path / "out"), *SMALL_NET, "--set", "max_iters=2",
               "--set", "eval_every=2") == 0


def test_grid_jobs_below_1_exits_1_before_writing(tmp_path, capsys, data_dir):
    out = tmp_path / "grid"
    code = run("grid", "--data", str(data_dir), "--out", str(out), *SMALL_NET,
               "--slr", "0.001", "--alr", "0.05", "--lam", "0.0", "--jobs", "0")
    assert code == cli.EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not out.exists()
