"""Command-line entry point.

Subcommands: gen-data, train, eval, gradcheck, export-maps, grid. Behavior
is controlled by a flat ``key = value`` config file ('#' starts a comment)
plus repeatable ``--set key=value`` overrides, which win. The effective
config is echoed into the output directory so any run can be reproduced
from its artifacts alone; ``eval`` and ``export-maps`` read the class count
and the preprocessing back from the echo next to the checkpoint. Outputs
are deterministic: no timestamps, stable ordering, fixed float formatting.

Exit codes: 0 success, 1 validation/oracle failure, 2 divergence abort,
3 I/O errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import gradcheck as G
from . import metrics as M
from . import networks as N
from . import toyscenes as D
from . import training as TR
from .encodings import EncodingKind
from .tensor import Tensor

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_DIVERGED = 2
EXIT_IO = 3

DEFAULTS = {
    # data generation
    "height": "64", "width": "64", "num_classes": "4",
    "n_train": "64", "n_val": "16", "n_test": "16",
    "noise_sigma": "0.03", "texture_amp": "0.12",
    "void_border_px": "1", "void_ribbon_px": "1",
    "data_seed": "0",
    # training
    "slr": "0.02", "alr": "0.1", "lambda": "0.0",
    "scheme": "fast", "block_len": "500",
    "batch_size": "4", "max_iters": "500", "seed": "0",
    "encoding": "basic", "tau": "0.9", "include_image": "false",
    "modified_update": "true", "eval_every": "250",
    "channels_base": "16", "n_context_layers": "4",
    "adversary_fov": "large", "adversary_capacity": "full",
    "adversary_head": "sigmoid",
    "lcn_window": "0", "pretrain_adversary_iters": "0",
    # eval / export
    "splits": "val", "export_count": "4",
}

# class index -> overlay color (shared by export-maps and any viewer)
PALETTE = ((40, 40, 40), (230, 25, 75), (60, 180, 75), (255, 225, 25),
           (0, 130, 200), (245, 130, 48), (145, 30, 180), (70, 240, 240))


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def parse_config_file(path) -> dict:
    cfg = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise CliError(f"{path}:{lineno}: expected 'key = value'", EXIT_FAIL)
        cfg[key.strip()] = value.strip()
    return cfg


def config_overrides(args) -> dict:
    """The values given on the command line: the ``--config`` file, then the
    ``--set`` overrides, which win."""
    cfg = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise CliError(f"config file not found: {path}", EXIT_IO)
        cfg.update(parse_config_file(path))
    for item in getattr(args, "set", None) or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise CliError(f"--set needs key=value, got {item!r}", EXIT_FAIL)
        cfg[key.strip()] = value.strip()
    unknown = set(cfg) - set(DEFAULTS)
    if unknown:
        raise CliError(f"unknown config keys: {sorted(unknown)}", EXIT_FAIL)
    return cfg


def effective_config(args) -> dict:
    return {**DEFAULTS, **config_overrides(args)}


def echo_config(cfg: dict, out_dir: Path) -> None:
    text = "".join(f"{k} = {cfg[k]}\n" for k in sorted(cfg))
    (out_dir / "config.echo").write_text(text)


def _bool(v: str) -> bool:
    if v.lower() in ("true", "1", "yes"):
        return True
    if v.lower() in ("false", "0", "no"):
        return False
    raise CliError(f"expected boolean, got {v!r}", EXIT_FAIL)


def scene_spec_from(cfg: dict) -> D.SceneSpec:
    return D.SceneSpec(
        height=int(cfg["height"]), width=int(cfg["width"]),
        num_classes=int(cfg["num_classes"]),
        noise_sigma=float(cfg["noise_sigma"]),
        texture_amp=float(cfg["texture_amp"]),
        void_border_px=int(cfg["void_border_px"]),
        void_ribbon_px=int(cfg["void_ribbon_px"]),
        seed=int(cfg["data_seed"]),
    )


def train_config_from(cfg: dict) -> TR.TrainConfig:
    enc = EncodingKind(cfg["encoding"], tau=float(cfg["tau"]),
                       include_image=_bool(cfg["include_image"]))
    return TR.TrainConfig(
        slr=float(cfg["slr"]), alr=float(cfg["alr"]), lam=float(cfg["lambda"]),
        scheme=cfg["scheme"], block_len=int(cfg["block_len"]),
        batch_size=int(cfg["batch_size"]), max_iters=int(cfg["max_iters"]),
        seed=int(cfg["seed"]), encoding=enc,
        modified_update=_bool(cfg["modified_update"]),
        eval_every=int(cfg["eval_every"]), num_classes=int(cfg["num_classes"]),
        channels_base=int(cfg["channels_base"]),
        n_context_layers=int(cfg["n_context_layers"]),
        adversary_fov=cfg["adversary_fov"],
        adversary_capacity=cfg["adversary_capacity"],
        adversary_head=cfg["adversary_head"],
        lcn_window=int(cfg["lcn_window"]),
        pretrain_adversary_iters=int(cfg["pretrain_adversary_iters"]),
    )


def _prepare_out_dir(cfg: dict, out: str) -> Path:
    out_dir = Path(out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        echo_config(cfg, out_dir)
    except OSError as e:
        raise CliError(f"cannot write to {out_dir}: {e}", EXIT_IO)
    return out_dir


def _load_dataset(path: str) -> D.Dataset:
    data_dir = Path(path)
    if not (data_dir / "manifest.txt").exists():
        raise CliError(f"no dataset at {data_dir} (missing manifest.txt)", EXIT_IO)
    return D.load_dataset(data_dir)


def cmd_gen_data(args) -> int:
    cfg = effective_config(args)
    out_dir = _prepare_out_dir(cfg, args.out)
    spec = scene_spec_from(cfg)
    ds = D.make_dataset(spec, int(cfg["n_train"]), int(cfg["n_val"]),
                        int(cfg["n_test"]))
    D.save_dataset(ds, out_dir)
    n = len(ds.train), len(ds.val), len(ds.test)
    manifest_rows = len((out_dir / "manifest.txt").read_text().splitlines())
    assert manifest_rows == sum(n), "manifest/count mismatch"
    print(f"wrote {n[0]} train / {n[1]} val / {n[2]} test scenes to {out_dir}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = effective_config(args)
    ds = _load_dataset(args.data)
    out_dir = _prepare_out_dir(cfg, args.out)
    tcfg = train_config_from(cfg)
    record = TR.train_run(tcfg, ds)
    (out_dir / "run.log").write_text(TR.record_log_text(record))
    seg_spec, adv_spec = TR.network_specs(tcfg)
    N.save_spec(seg_spec, out_dir / "segmenter.spec")
    N.save_spec(adv_spec, out_dir / "adversary.spec")
    if record.best_seg_params is not None:
        N.save_params(record.best_seg_params, out_dir / "segmenter.ckpt")
        N.save_params(record.best_adv_params, out_dir / "adversary.ckpt")
    if record.status == "diverged":
        print(f"diverged at iteration {record.diverged_at}; aborted")
        return EXIT_DIVERGED
    print(f"completed {tcfg.max_iters} iterations; "
          f"best val mIoU {record.best_val_miou:.4f} at iter {record.best_iteration}")
    return EXIT_OK


# config keys that a checkpoint is evaluated with exactly as it was trained
TRAINED_KEYS = ("num_classes", "lcn_window")


def _load_checkpoint(args):
    """(config, spec, params) for evaluating the checkpoint in ``--ckpt``.

    The config is the effective one, except that ``TRAINED_KEYS`` take the
    values of the ``config.echo`` that ``train`` wrote next to the
    checkpoint; a value given on the command line that differs is an error.
    """
    given = config_overrides(args)
    ckpt_dir = Path(args.ckpt)
    spec_path = ckpt_dir / "segmenter.spec"
    params_path = ckpt_dir / "segmenter.ckpt"
    echo_path = ckpt_dir / "config.echo"
    if not (spec_path.exists() and params_path.exists() and echo_path.exists()):
        raise CliError(f"no checkpoint in {ckpt_dir}", EXIT_IO)
    trained = parse_config_file(echo_path)
    missing = [key for key in TRAINED_KEYS if key not in trained]
    if missing:
        raise CliError(f"{echo_path} does not set {', '.join(missing)}", EXIT_FAIL)
    cfg = {**DEFAULTS, **{key: trained[key] for key in TRAINED_KEYS}, **given}
    spec = N.load_spec(spec_path)
    if spec.out_channels != int(cfg["num_classes"]):
        raise CliError(
            f"num_classes={cfg['num_classes']}, but the segmenter in {ckpt_dir} "
            f"predicts {spec.out_channels} classes", EXIT_FAIL)
    for key in TRAINED_KEYS:
        if cfg[key] != trained[key]:
            raise CliError(
                f"{key}={cfg[key]}, but the checkpoint in {ckpt_dir} was "
                f"trained with {key}={trained[key]}", EXIT_FAIL)
    return cfg, spec, N.load_params(params_path)


def cmd_eval(args) -> int:
    cfg, spec, params = _load_checkpoint(args)
    ds = _load_dataset(args.data)
    tcfg = train_config_from(cfg)
    out_dir = _prepare_out_dir(cfg, args.out)
    stride = N.receptive_field(spec)[2]
    bf_cfg = TR.dataset_bf_config(ds)

    def preprocess(img):
        return TR.preprocess_images(img, tcfg)

    for split in cfg["splits"].split(","):
        split = split.strip()
        samples = ds.split(split)
        if not samples:
            raise CliError(f"split {split!r} is empty", EXIT_FAIL)
        report = M.evaluate_split(spec, params, samples, tcfg.num_classes,
                                  bf_cfg, stride, preprocess=preprocess)
        (out_dir / f"eval_{split}.csv").write_text(
            M.report_to_csv(report, tcfg.num_classes))
        (out_dir / f"eval_{split}.txt").write_text(
            M.report_summary(report) + "\n")
        print(f"{split}: {M.report_summary(report)}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    results = G.run_suite(corrupt_op=args.corrupt)
    width = max(len(name) for name, _ in results)
    for name, err in results:
        status = "ok" if err < G.TOLERANCE else "FAIL"
        print(f"{name:<{width}}  {err:<12.3e} {status}")
    ok = G.suite_passed(results)
    print(f"{len(results)} cases, tolerance {G.TOLERANCE:g}: "
          f"{'all passed' if ok else 'FAILURES PRESENT'}")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_export_maps(args) -> int:
    cfg, spec, params = _load_checkpoint(args)
    ds = _load_dataset(args.data)
    tcfg = train_config_from(cfg)
    out_dir = _prepare_out_dir(cfg, args.out)
    stride = N.receptive_field(spec)[2]
    count = min(int(cfg["export_count"]), len(ds.val))
    params = N.detach_params(params)
    for sample in ds.val[:count]:
        img = TR.preprocess_images(sample.image[None], tcfg)
        probs = N.forward(spec, params, Tensor(img)).data[0]
        for c in range(probs.shape[0]):
            gray = np.rint(255.0 * probs[c]).astype(np.int64)
            D.write_pgm(out_dir / f"{sample.id}_class{c}.pgm", gray)
        pred = M.predict_labels(probs, upsample=stride)
        D.write_pgm(out_dir / f"{sample.id}_argmax.pgm", pred)
        overlay = _overlay(sample.image, pred)
        D.write_ppm(out_dir / f"{sample.id}_overlay.ppm", overlay)
    print(f"exported maps for {count} validation scenes to {out_dir}")
    return EXIT_OK


def _overlay(image: np.ndarray, labels: np.ndarray, alpha: float = 0.5) -> np.ndarray:
    colors = np.asarray(PALETTE, dtype=np.float64)[:, :] / 255.0
    painted = colors[labels].transpose(2, 0, 1)
    return (1.0 - alpha) * image + alpha * painted


def cmd_grid(args) -> int:
    cfg = effective_config(args)
    ds = _load_dataset(args.data)
    out_dir = _prepare_out_dir(cfg, args.out)
    base = train_config_from(cfg)
    slrs = [float(v) for v in args.slr.split(",")]
    alrs = [float(v) for v in args.alr.split(",")]
    lams = [float(v) for v in args.lam.split(",")]
    best, entries = TR.grid_search(base, ds, slrs, alrs, lams, jobs=args.jobs)
    lines = []
    for c, r in sorted(entries, key=lambda e: (e[0].slr, e[0].alr, e[0].lam)):
        mbf = "na" if r.best_val_mbf is None else f"{r.best_val_mbf:.6f}"
        lines.append(f"slr={c.slr:g} alr={c.alr:g} lambda={c.lam:g} "
                     f"status={r.status} val_miou={r.best_val_miou:.6f} val_mbf={mbf}")
    (out_dir / "grid.log").write_text("\n".join(lines) + "\n")
    c, r = best
    print(f"best: slr={c.slr:g} alr={c.alr:g} lambda={c.lam:g} "
          f"val_miou={r.best_val_miou:.6f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="advseg",
        description="Adversarial training for semantic segmentation, desk scale")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, data=False, ckpt=False):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config value (repeatable)")
        p.add_argument("--out", required=True, help="output directory")
        if data:
            p.add_argument("--data", required=True, help="dataset directory")
        if ckpt:
            p.add_argument("--ckpt", required=True, help="checkpoint directory")

    common(sub.add_parser("gen-data", help="generate a toy scene dataset"))
    common(sub.add_parser("train", help="run one training configuration"), data=True)
    common(sub.add_parser("eval", help="evaluate a checkpoint"), data=True, ckpt=True)
    common(sub.add_parser("export-maps",
                          help="write per-class probability maps and overlays"),
           data=True, ckpt=True)

    g = sub.add_parser("gradcheck", help="finite-difference check of every op")
    g.add_argument("--corrupt", help="negative control: corrupt this op's backward rule")

    gr = sub.add_parser("grid", help="grid search over slr x alr x lambda")
    common(gr, data=True)
    gr.add_argument("--slr", required=True, help="comma-separated values")
    gr.add_argument("--alr", required=True, help="comma-separated values")
    gr.add_argument("--lam", required=True, help="comma-separated values")
    gr.add_argument("--jobs", type=int, default=1, help="parallel runs")
    return parser


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "eval": cmd_eval,
    "gradcheck": cmd_gradcheck,
    "export-maps": cmd_export_maps,
    "grid": cmd_grid,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
