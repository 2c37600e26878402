"""Command-line entry point.

Subcommands: gen-data, train, eval, gradcheck, export-maps, grid. Behavior
is controlled by a flat ``key = value`` config file ('#' starts a comment)
plus repeatable ``--set key=value`` overrides, which win. The keys are the
fields of ``SceneSpec``, ``EncodingKind`` and ``TrainConfig``, which own
their defaults and types (``data_seed`` is the scenes' seed, ``encoding``
the encoding's kind, ``lambda`` is ``lam``), plus ``n_train``, ``n_val``,
``n_test``, ``splits`` and ``export_count``. The effective config is echoed
into the output directory so any run can be reproduced from its artifacts
alone; ``eval`` and ``export-maps`` read the class count, the segmenter's
width and depth and the preprocessing back from the echo next to the
checkpoint and rebuild the segmenter from them, as training built it.
Outputs are deterministic: no timestamps, stable ordering, fixed float
formatting.

Exit codes: 0 success, 1 validation/oracle failure, 2 divergence abort,
3 I/O errors (a truncated or corrupt checkpoint or dataset among them).
"""

from __future__ import annotations

import argparse
import itertools
import sys
from contextlib import contextmanager
from dataclasses import fields, replace
from functools import partial
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import gradcheck as G
from . import metrics as M
from . import networks as N
from . import toyscenes as D
from . import training as TR
from .encodings import EncodingKind
from .labelmap import VOID

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_DIVERGED = 2
EXIT_IO = 3

# config key -> field name; the dataclasses own every default and type
SCENE_KEYS = {("data_seed" if f.name == "seed" else f.name): f.name
              for f in fields(D.SceneSpec)}
ENCODING_KEYS = {"encoding": "kind", "tau": "tau", "include_image": "include_image"}
TRAIN_KEYS = {("lambda" if f.name == "lam" else f.name): f.name
              for f in fields(TR.TrainConfig) if f.name != "encoding"}


def _config_text(value) -> str:
    return str(value).lower() if isinstance(value, bool) else str(value)


DEFAULTS = {
    **{key: _config_text(getattr(default, name))
       for default, keys in ((D.SceneSpec(), SCENE_KEYS), (EncodingKind(), ENCODING_KEYS),
                             (TR.TrainConfig(), TRAIN_KEYS))
       for key, name in keys.items()},
    # read by one command each, held by no dataclass
    "n_train": "64", "n_val": "16", "n_test": "16", "splits": "val", "export_count": "4",
}

# class index -> overlay color (shared by export-maps and any viewer)
PALETTE = ((40, 40, 40), (230, 25, 75), (60, 180, 75), (255, 225, 25),
           (0, 130, 200), (245, 130, 48), (145, 30, 180), (70, 240, 240))
OVERLAY_ALPHA = 0.5  # weight of the palette color in an export-maps overlay


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
    raise ValueError(f"expected boolean, got {v!r}")


@contextmanager
def _config_values():
    """Turn a ValueError from parsing or checking config values into a
    CliError (exit 1, one ``error:`` line)."""
    try:
        yield
    except ValueError as e:
        raise CliError(f"invalid config value: {e}", EXIT_FAIL) from None


def _from_config(cls, keys: dict, cfg: dict, **values):
    """``cls(**values)`` plus each field in ``keys``, parsed from its key's
    value as the field's annotation says: bool by ``_bool``, else the type."""
    types = get_type_hints(cls)
    with _config_values():
        for key, name in keys.items():
            values[name] = (_bool if types[name] is bool else types[name])(cfg[key])
        return cls(**values)


def scene_spec_from(cfg: dict) -> D.SceneSpec:
    return _from_config(D.SceneSpec, SCENE_KEYS, cfg)


def train_config_from(cfg: dict) -> TR.TrainConfig:
    return _from_config(TR.TrainConfig, TRAIN_KEYS, cfg,
                        encoding=_from_config(EncodingKind, ENCODING_KEYS, cfg))


def _prepare_out_dir(cfg: dict, out: str) -> Path:
    out_dir = Path(out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        echo_config(cfg, out_dir)
    except OSError as e:
        raise CliError(f"cannot write to {out_dir}: {e}", EXIT_IO)
    return out_dir


def _unlabelled_split(ds: D.Dataset, splits) -> str | None:
    """The first non-empty split of ``splits`` without a labelled pixel."""
    return next((split for split in splits if ds.split(split) and
                 all(np.all(s.labels == VOID) for s in ds.split(split))), None)


def _load_dataset(path: str, tcfg: TR.TrainConfig, splits=(), lams=()) -> D.Dataset:
    """The dataset in ``path``, which must suit ``tcfg``: the same class
    count, each of ``splits`` holding a labelled pixel, an LCN window that
    fits in the images, a last context dilation no larger than the
    segmenter's feature maps, and extents that the segmenter pools evenly,
    and at any lambda > 0 in ``lams`` the adversary after it as well. A file that
    does not parse, or a sample of another extent than ``meta.cfg`` gives,
    is a corrupt dataset (exit 3)."""
    data_dir = Path(path)
    if not (data_dir / "manifest.txt").exists():
        raise CliError(f"no dataset at {data_dir} (missing manifest.txt)", EXIT_IO)
    try:
        ds = D.load_dataset(data_dir)
    except ValueError as e:
        raise CliError(f"corrupt dataset in {data_dir}: {e}", EXIT_IO) from None
    if ds.spec.num_classes != tcfg.num_classes:
        raise CliError(f"num_classes={tcfg.num_classes}, but the dataset in "
                       f"{data_dir} has num_classes={ds.spec.num_classes}", EXIT_FAIL)
    for split in splits:
        if split not in ("train", "val", "test"):
            raise CliError(f"unknown split {split!r}", EXIT_FAIL)
        if not ds.split(split):
            raise CliError(f"split {split!r} of {data_dir} is empty", EXIT_FAIL)
    split = _unlabelled_split(ds, splits)
    if split:
        raise CliError(f"split {split!r} of {data_dir} has no labelled pixel", EXIT_FAIL)
    h, w = ds.spec.height, ds.spec.width
    if tcfg.lcn_window > min(h, w):
        raise CliError(f"invalid config value: lcn_window={tcfg.lcn_window} exceeds "
                       f"the {min(h, w)}-pixel extent of the images in {data_dir}",
                       EXIT_FAIL)
    seg_spec, adv_spec = TR.network_specs(tcfg)
    nets, stride = "the segmenter", N.receptive_field(seg_spec)[2]
    # every off-centre tap of a layer dilated past the feature maps reads
    # only zero padding, and the padded grid doubles with each context layer
    dilation = max(lay.dilation for lay in seg_spec.layers)
    if dilation > min(h, w) / stride:
        raise CliError(f"invalid config value: n_context_layers={tcfg.n_context_layers} "
                       f"dilates the last context layer by {dilation}, more than the "
                       f"{min(h, w) / stride:g}-pixel extent of the segmenter's "
                       f"feature maps of the images in {data_dir}", EXIT_FAIL)
    if any(lam > 0 for lam in lams):
        nets += " and adversary at lambda > 0"
        stride *= N.receptive_field(adv_spec)[2]
    if h % stride or w % stride:
        raise CliError(f"the {h}x{w} images in {data_dir} do not pool evenly: "
                       f"extents must be multiples of {stride}, the total "
                       f"stride of {nets}", EXIT_FAIL)
    return ds


def cmd_gen_data(args) -> int:
    cfg = effective_config(args)
    spec = scene_spec_from(cfg)
    with _config_values():
        counts = [int(cfg[key]) for key in ("n_train", "n_val", "n_test")]
        if min(counts) < 0:
            raise ValueError(f"n_train, n_val and n_test must be >= 0, got {counts}")
    ds = D.make_dataset(spec, *counts)
    split = _unlabelled_split(ds, ("train", "val", "test"))
    if split:
        raise CliError(f"invalid config value: split {split!r} of the scenes has no "
                       f"labelled pixel (void_border_px={spec.void_border_px}, "
                       f"void_ribbon_px={spec.void_ribbon_px})", EXIT_FAIL)
    out_dir = _prepare_out_dir(cfg, args.out)
    D.save_dataset(ds, out_dir)
    n = len(ds.train), len(ds.val), len(ds.test)
    manifest_rows = len((out_dir / "manifest.txt").read_text().splitlines())
    assert manifest_rows == sum(n), "manifest/count mismatch"
    print(f"wrote {n[0]} train / {n[1]} val / {n[2]} test scenes to {out_dir}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = effective_config(args)
    tcfg = train_config_from(cfg)
    ds = _load_dataset(args.data, tcfg, ("train", "val"), (tcfg.lam,))
    out_dir = _prepare_out_dir(cfg, args.out)
    record = TR.train_run(tcfg, ds)
    (out_dir / "run.log").write_text(TR.record_log_text(record))
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
TRAINED_KEYS = ("num_classes", "lcn_window", "channels_base", "n_context_layers")


def _load_checkpoint(args):
    """(config, train config, segmenter spec, params) for evaluating the
    checkpoint in ``--ckpt``.

    The config is the effective one, except that ``TRAINED_KEYS`` take the
    values of the ``config.echo`` that ``train`` wrote next to the
    checkpoint; a value given on the command line that parses to another
    value is an error.
    The segmenter is built from the config as ``train`` built it, and the
    checkpoint must hold exactly its parameters.
    """
    given = config_overrides(args)
    ckpt_dir = Path(args.ckpt)
    params_path = ckpt_dir / "segmenter.ckpt"
    echo_path = ckpt_dir / "config.echo"
    if not (params_path.exists() and echo_path.exists()):
        raise CliError(f"no checkpoint in {ckpt_dir}", EXIT_IO)
    trained = parse_config_file(echo_path)
    missing = [key for key in TRAINED_KEYS if key not in trained]
    if missing:
        raise CliError(f"{echo_path} does not set {', '.join(missing)}", EXIT_FAIL)
    as_trained = {key: trained[key] for key in TRAINED_KEYS}
    cfg = {**DEFAULTS, **as_trained, **given}
    tcfg, was = train_config_from(cfg), train_config_from({**DEFAULTS, **as_trained})
    for key in TRAINED_KEYS:
        if getattr(tcfg, key) != getattr(was, key):
            raise CliError(
                f"{key}={getattr(tcfg, key)}, but the checkpoint in {ckpt_dir} was "
                f"trained with {key}={getattr(was, key)}", EXIT_FAIL)
    spec = TR.network_specs(tcfg)[0]
    try:
        params = N.load_params(params_path, spec)
    except ValueError as e:
        raise CliError(f"corrupt checkpoint {params_path}: {e}", EXIT_IO) from None
    return cfg, tcfg, spec, params


def cmd_eval(args) -> int:
    cfg, tcfg, spec, params = _load_checkpoint(args)
    splits = [split.strip() for split in cfg["splits"].split(",")]
    ds = _load_dataset(args.data, tcfg, splits)
    out_dir = _prepare_out_dir(cfg, args.out)
    stride = N.receptive_field(spec)[2]
    bf_cfg = TR.dataset_bf_config(ds)
    preprocess = partial(TR.network_input, window=tcfg.lcn_window)
    for split in splits:
        report = M.evaluate_split(spec, params, ds.split(split), tcfg.num_classes,
                                  bf_cfg, stride, preprocess=preprocess)
        (out_dir / f"eval_{split}.csv").write_text(
            M.report_to_csv(report, tcfg.num_classes))
        (out_dir / f"eval_{split}.txt").write_text(
            M.report_summary(report) + "\n")
        print(f"{split}: {M.report_summary(report)}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    try:
        results = G.run_suite(corrupt_op=args.corrupt)
    except G.UnknownOpKind as e:
        raise CliError(str(e), EXIT_FAIL) from None
    width = max(len(name) for name, _ in results)
    for name, err in results:
        status = "ok" if err < G.TOLERANCE else "FAIL"
        print(f"{name:<{width}}  {err:<12.3e} {status}")
    ok = G.suite_passed(results)
    print(f"{len(results)} cases, tolerance {G.TOLERANCE:g}: "
          f"{'all passed' if ok else 'FAILURES PRESENT'}")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_export_maps(args) -> int:
    cfg, tcfg, spec, params = _load_checkpoint(args)
    ds = _load_dataset(args.data, tcfg)
    with _config_values():
        count = int(cfg["export_count"])
        if count < 0:
            raise ValueError(f"export_count must be >= 0, got {count}")
    count = min(count, len(ds.val))
    out_dir = _prepare_out_dir(cfg, args.out)
    stride = N.receptive_field(spec)[2]
    samples = ds.val[:count]
    maps = M.segment(spec, params, samples,
                     partial(TR.network_input, window=tcfg.lcn_window))
    for sample, probs in zip(samples, maps):
        probs = probs[0]
        for c in range(probs.shape[0]):
            gray = np.rint(255.0 * probs[c]).astype(np.int64)
            D.write_pgm(out_dir / f"{sample.id}_class{c}.pgm", gray)
        pred = M.predict_labels(probs, upsample=stride)
        D.write_pgm(out_dir / f"{sample.id}_argmax.pgm", pred)
        overlay = _overlay(sample.image, pred)
        D.write_ppm(out_dir / f"{sample.id}_overlay.ppm", overlay)
    print(f"exported maps for {count} validation scenes to {out_dir}")
    return EXIT_OK


def _overlay(image: np.ndarray, labels: np.ndarray) -> np.ndarray:
    colors = np.asarray(PALETTE, dtype=np.float64) / 255.0
    painted = colors[labels].transpose(2, 0, 1)
    return (1.0 - OVERLAY_ALPHA) * image + OVERLAY_ALPHA * painted


def cmd_grid(args) -> int:
    cfg = effective_config(args)
    base = train_config_from(cfg)
    with _config_values():
        slrs, alrs, lams = ([float(v) for v in values.split(",")]
                            for values in (args.slr, args.alr, args.lam))
        configs = [replace(base, slr=s, alr=a, lam=l)
                   for s, a, l in sorted(itertools.product(slrs, alrs, lams))]
    if args.jobs < 1:
        raise CliError(f"--jobs must be >= 1, got {args.jobs}", EXIT_FAIL)
    ds = _load_dataset(args.data, base, ("train", "val"), lams)
    out_dir = _prepare_out_dir(cfg, args.out)
    best, entries = TR.grid_search(configs, ds, jobs=args.jobs)
    lines = [f"slr={c.slr:g} alr={c.alr:g} lambda={c.lam:g} status={r.status} "
             f"val_miou={M.fmt(r.best_val_miou)} val_mbf={M.fmt(r.best_val_mbf)}"
             for c, r in entries]
    (out_dir / "grid.log").write_text("\n".join(lines) + "\n")
    c, r = best
    print(f"best: slr={c.slr:g} alr={c.alr:g} lambda={c.lam:g} "
          f"val_miou={M.fmt(r.best_val_miou)}")
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
    g.add_argument("--corrupt", help="negative control: scale this op kind's backward rule by 1.5")

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
