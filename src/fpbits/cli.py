"""Command-line interface.

Subcommands cover the whole pipeline lifecycle:

* ``synth``     generate a synthetic dataset (templates + images)
* ``train``     fit a pipeline model on a dataset
* ``encode``    turn every impression into a bit-string file
* ``enroll``    train per-finger masks and enrolled references
* ``match``     score explicit pairs (fused-vector, plain, or masked bits)
* ``evaluate``  run a verification protocol and report EER
* ``compress``  EER across fold-compressed lengths
* ``inspect``   print artifact statistics

Every deliberate failure surfaces as a one-line ``error:`` message and a
nonzero exit code.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import pipeline
from .codebook import BitString
from .config import PipelineConfig, load_config, parse_config, serialize_config
from .errors import BadLength, DimensionMismatch, FpbitsError, ModelMissing
from .matching import (
    KIND_INTERSECTION,
    MatchScore,
    check_fold_length,
    intersection_scores,
    masked_scores,
    stack_bits,
)
from .model_store import (
    load_bitstring,
    load_finger,
    load_model,
    save_bitstring,
    save_finger,
    save_model,
    write_file_atomic,
)
from .synth import SynthParams, synth_dataset
from .template_io import (
    parse_text_template,
    read_bytes,
    read_pgm,
    read_text,
    serialize_text_template,
    text_lines,
    write_pgm,
)

TEMPLATE_DIR = "templates"
IMAGE_DIR = "images"


# ---------------------------------------------------------------------------
# dataset directory layout
# ---------------------------------------------------------------------------

def _make_out_dir(out_dir: str, *subdirs: str) -> None:
    """``os.makedirs`` of ``out_dir`` and its ``subdirs``; a failure is a
    ``ModelMissing`` naming ``out_dir``."""
    try:
        for path in [out_dir] + [os.path.join(out_dir, sub) for sub in subdirs]:
            os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ModelMissing(f"cannot create {out_dir!r}: {exc.strerror or exc}") from None


def _path(directory: str, ext: str, *ids: str) -> str:
    """The file of ``ids`` in ``directory``: ``<subject>_<impression><ext>``, or
    ``<subject><ext>`` for a finger. The one place the naming rule is formatted."""
    return os.path.join(directory, "_".join(ids) + ext)


def _listed(directory: str, ext: str, what: str) -> Iterator[Tuple[Tuple[str, str], str]]:
    """``((subject, impression), path)`` of each ``<ext>`` file in ``directory``, by name;
    the subject ends at the last ``_``. An unlistable directory or a name without both
    parts raises ``ModelMissing``. The one place the naming rule is parsed."""
    try:
        names = sorted(os.listdir(directory))
    except OSError as exc:
        raise ModelMissing(f"cannot list {directory!r}: {exc.strerror or exc}") from None
    for name in names:
        if name.endswith(ext):
            sid, _, iid = name[: -len(ext)].rpartition("_")
            if not sid or not iid:
                raise ModelMissing(f"{what} filename {name!r} is not <subject>_<impression>{ext}")
            yield (sid, iid), os.path.join(directory, name)


def save_dataset(items: pipeline.DatasetDict, out_dir: str) -> None:
    tdir = os.path.join(out_dir, TEMPLATE_DIR)
    idir = os.path.join(out_dir, IMAGE_DIR)
    _make_out_dir(out_dir, TEMPLATE_DIR, IMAGE_DIR)
    for key, (template, image) in sorted(items.items()):
        write_file_atomic(_path(tdir, ".fpt", *key),
                          serialize_text_template(template).encode("ascii"))
        write_file_atomic(_path(idir, ".pgm", *key), write_pgm(image))


def load_dataset(root: str) -> pipeline.DatasetDict:
    tdir = os.path.join(root, TEMPLATE_DIR)
    idir = os.path.join(root, IMAGE_DIR)
    if not os.path.isdir(tdir) or not os.path.isdir(idir):
        raise ModelMissing(
            f"dataset {root!r} must contain {TEMPLATE_DIR}/ and {IMAGE_DIR}/"
        )
    items: pipeline.DatasetDict = {}
    for (sid, iid), path in _listed(tdir, ".fpt", "template"):
        name = os.path.basename(path)
        image_path = _path(idir, ".pgm", sid, iid)
        if not os.path.exists(image_path):
            raise ModelMissing(f"image {image_path!r} missing for template {name!r}")
        template = parse_text_template(read_text(path), subject_id=sid, impression_id=iid)
        image = read_pgm(read_bytes(image_path))
        if (template.width, template.height) != (image.width, image.height):
            raise DimensionMismatch(
                f"template {name!r} declares {template.width}x{template.height}, "
                f"but image {image_path!r} is {image.width}x{image.height}"
            )
        items[(sid, iid)] = (template, image)
    if not items:
        raise ModelMissing(f"dataset {root!r} holds no templates")
    return items


def _resolve_config(args) -> PipelineConfig:
    config = load_config(args.config) if getattr(args, "config", None) else PipelineConfig()
    overrides = getattr(args, "set", None) or []
    if overrides:
        text = "\n".join(kv.replace("=", " = ", 1) for kv in overrides)
        config = parse_config(text, base=config)
    return config


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    # a flag stores under its field's name only when given, so every other
    # field keeps its SynthParams default
    params = SynthParams(**{name: getattr(args, name)
                            for _, name, _, _ in _SYNTH_FLAGS if hasattr(args, name)})
    items = synth_dataset(params)
    save_dataset(items, args.out)
    print(f"wrote {len(items)} impressions under {args.out}")
    return 0


def cmd_train(args) -> int:
    config = _resolve_config(args)
    items = load_dataset(args.dataset)
    model = pipeline.train_model(items, config, verbose=not args.quiet)
    write_file_atomic(args.out, save_model(model))
    print(
        f"model: K={model.codebook.k} n_p={config.n_p} "
        f"n_m={model.geometry.n_m} n_t={model.geometry.n_t} -> {args.out}"
    )
    return 0


def cmd_encode(args) -> int:
    model = load_model(read_bytes(args.model))
    items = load_dataset(args.dataset)
    encoded = pipeline.encode_dataset(items, model)
    _make_out_dir(args.out_dir)
    for key, enc in sorted(encoded.items()):
        write_file_atomic(_path(args.out_dir, ".fpbs", *key), save_bitstring(enc.bits))
    print(f"wrote {len(encoded)} bit-strings under {args.out_dir}")
    return 0


def cmd_enroll(args) -> int:
    model = load_model(read_bytes(args.model))
    items = load_dataset(args.dataset)
    # only the enrollment impressions are encoded; the rest are test data
    fingers = {
        sid: pipeline.enroll_subject(
            sid,
            [pipeline.encode_impression(*items[k], model) for k in enroll_keys], model
        )
        for sid, (enroll_keys, _) in sorted(
            pipeline.split_keys(items, model.config.enroll_size).items()
        )
    }

    _make_out_dir(args.out_dir)
    for sid, finger in fingers.items():
        write_file_atomic(_path(args.out_dir, ".fpfm", sid), save_finger(finger))
    print(f"enrolled {len(fingers)} fingers under {args.out_dir}")
    return 0


def _read_pairs(path: str) -> List[Tuple[str, str, str, str]]:
    pairs = []
    for lineno, raw in enumerate(text_lines(read_text(path)), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ModelMissing(
                f"pairs file line {lineno}: expected 4 fields, got {len(parts)}"
            )
        pairs.append((parts[0], parts[1], parts[2], parts[3]))
    return pairs


def _load_bits_dir(path: str) -> Dict[Tuple[str, str], BitString]:
    if not os.path.isdir(path):
        raise ModelMissing(f"bit-string directory {path!r} does not exist")
    return {key: load_bitstring(read_bytes(file))
            for key, file in _listed(path, ".fpbs", "bit-string")}


def cmd_match(args) -> int:
    pairs = _read_pairs(args.pairs)
    if args.kind == "lgs":
        model = load_model(read_bytes(args.model))
        keyed = [((sa, ia), (sb, ib)) for sa, ia, sb, ib in pairs]
        scores = pipeline.lgs_scores(load_dataset(args.dataset), model, keyed)
    else:
        bits = _load_bits_dir(args.bits_dir)
        if args.kind == "masked":  # side a names the enrolled finger, side b the query
            model = load_model(read_bytes(args.model))
            fingers = {}  # one load per finger, in file order
            for sa in dict.fromkeys(p[0] for p in pairs):
                path = _path(args.fingers_dir, ".fpfm", sa)
                fingers[sa] = finger = load_finger(read_bytes(path))
                if finger.finger_id != sa:
                    raise ModelMissing(f"{path!r} holds finger {finger.finger_id!r}, not {sa!r}")
            side_a = [BitString(fingers[p[0]].reference) for p in pairs]
        else:
            side_a = [_get(bits, sa, ia) for sa, ia, _, _ in pairs]
        # every string the file names must share one length
        strings = stack_bits(side_a + [_get(bits, sb, ib) for _, _, sb, ib in pairs])
        a, b = strings[: len(pairs)], strings[len(pairs) :]
        if args.kind == "masked":
            masks = np.array([fingers[p[0]].mask for p in pairs], dtype=bool)
            # the reshape gives an empty file its (0, 0) masks
            values = masked_scores(b, a, masks.reshape(a.shape), model.config.mask_both)
        else:
            values = intersection_scores(a, b)
        scores = [MatchScore(v, KIND_INTERSECTION) for v in values.tolist()]
    lines = [
        f"{' '.join(pair)} {score.kind} {score.value:.6f}" + (" short" if score.short else "")
        for pair, score in zip(pairs, scores)
    ]

    # no pairs: no output
    _write_text(args.out, "".join(line + "\n" for line in lines), f"{len(lines)} scores")
    return 0


def _write_text(out: Optional[str], text: str, what: str) -> None:
    """``text`` to ``--out`` as UTF-8 (the pairs file's encoding) and a ``wrote`` line,
    or else to stdout."""
    if out:
        write_file_atomic(out, text.encode("utf-8"))
        print(f"wrote {what} to {out}")
    else:
        sys.stdout.write(text)


def _get(bits: Dict[Tuple[str, str], BitString], sid: str, iid: str) -> BitString:
    if (sid, iid) not in bits:
        raise ModelMissing(f"bit-string for {sid}/{iid} not found")
    return bits[(sid, iid)]


def cmd_evaluate(args) -> int:
    if args.fold is not None and args.matcher != "bits":
        raise BadLength(f"--fold applies only to --matcher bits, not {args.matcher}")
    model = load_model(read_bytes(args.model))
    if args.fold is not None:
        check_fold_length(args.fold, model.codebook.k)
    items = load_dataset(args.dataset)
    subjects = sorted({k[0] for k in items})
    impressions = sorted({k[1] for k in items})

    lines = [
        f"matcher: {args.matcher}",
        f"subjects: {len(subjects)}",
        f"impressions per subject: {len(impressions)}",
    ]
    if args.matcher in ("lgs", "bits"):
        if args.matcher == "lgs":
            report = pipeline.evaluate_fvc_lgs(items, model)
        else:
            encoded = pipeline.encode_dataset(items, model)
            report = pipeline.evaluate_fvc_bits(encoded, fold_to=args.fold)
        lines += [
            f"genuine attempts: {report.genuine_scores.size}",
            f"impostor attempts: {report.impostor_scores.size}",
        ]
        if args.fold:
            lines.append(f"fold length: {args.fold}")
        lines.append(f"eer: {report.eer:.6f}")
        rocs = {"roc.csv": report}
    else:  # split
        encoded = pipeline.encode_dataset(items, model)
        result = pipeline.evaluate_split(encoded, model)
        lines += [
            f"enroll size: {model.config.enroll_size}",
            "enrolled reference: OR of enrollment bit-strings",
            "impostor pairing: each enrolled finger vs every other subject's "
            "first test impression",
            f"mask applied to: {'both strings' if model.config.mask_both else 'enrolled only'}",
            f"genuine attempts: {result.n_genuine}",
            f"impostor attempts: {result.n_impostor}",
            f"eer trained: {result.trained.eer:.6f}",
            f"eer untrained: {result.untrained.eer:.6f}",
        ]
        rocs = {"roc_trained.csv": result.trained, "roc_untrained.csv": result.untrained}

    # the directory appears only once every result is in hand
    _make_out_dir(args.out_dir)
    for name, report in rocs.items():
        _write_roc(os.path.join(args.out_dir, name), report)
    summary = "\n".join(lines) + "\n"
    write_file_atomic(os.path.join(args.out_dir, "summary.txt"), summary.encode("ascii"))
    sys.stdout.write(summary)
    return 0


def _write_roc(path: str, report) -> None:
    rows = ["far,frr,threshold"]
    rows += [f"{far:.9f},{frr:.9f},{th:.9f}" for far, frr, th in report.roc]
    write_file_atomic(path, ("\n".join(rows) + "\n").encode("ascii"))


def _fold_lengths(text: str) -> List[int]:
    """The ``--lengths`` list: comma-separated integers, at least one."""
    lengths = []
    for tok in filter(None, (t.strip() for t in text.split(","))):
        try:
            lengths.append(int(tok))
        except ValueError:
            raise BadLength(f"--lengths: {tok!r} is not an integer") from None
    if not lengths:
        raise BadLength(f"--lengths {text!r} names no fold length")
    return lengths


def cmd_compress(args) -> int:
    lengths = _fold_lengths(args.lengths)
    model = load_model(read_bytes(args.model))
    for length in lengths:
        check_fold_length(length, model.codebook.k)
    items = load_dataset(args.dataset)
    encoded = pipeline.encode_dataset(items, model)
    sweep = pipeline.compression_sweep(encoded, lengths)
    rows = ["length,eer"] + [f"{length},{eer:.6f}" for length, eer in sweep]
    _write_text(args.out, "\n".join(rows) + "\n", f"{len(sweep)} rows")
    return 0


def cmd_inspect(args) -> int:
    if not (args.model or args.bits or args.finger):
        raise ModelMissing("nothing to inspect; pass --model, --bits, or --finger")
    if args.model:
        model = load_model(read_bytes(args.model))
        cb = model.codebook
        print(f"model: {args.model}")
        print(f"  clusters K: {cb.k}")
        print(f"  fused dimension: {cb.dim}")
        print(f"  lattice sizes: n_m={model.geometry.n_m} n_t={model.geometry.n_t}")
        print(f"  boundary radii: min={cb.radii.min():.4f} "
              f"mean={cb.radii.mean():.4f} max={cb.radii.max():.4f}")
        print(f"  cardinalities: min={cb.cardinalities.min()} "
              f"max={cb.cardinalities.max()}")
        print("  config:")
        for line in text_lines(serialize_config(model.config)):
            print(f"    {line}")
    if args.bits:
        bs = load_bitstring(read_bytes(args.bits))
        print(f"bit-string: {args.bits}")
        print(f"  length: {len(bs)}")
        print(f"  set bits: {bs.ones}")
    if args.finger:
        finger = load_finger(read_bytes(args.finger))
        print(f"finger model: {args.finger}")
        print(f"  finger id: {finger.finger_id}")
        print(f"  mask keeps: {int(finger.mask.sum())} of {finger.k}")
        print(f"  mean minutia count: {finger.n_mean:.2f}")
        print(f"  enrolled set bits: {int(finger.reference.sum())}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# (flag, SynthParams field, type, help) of every synth flag that sets a field
_SYNTH_FLAGS = (
    ("--subjects", "n_subjects", int, None),
    ("--impressions", "n_impressions", int, None),
    ("--width", "width", int, None),
    ("--height", "height", int, None),
    ("--minutiae", "n_minutiae", int, None),
    ("--rotation", "rotation_deg", float, "max rotation, degrees"),
    ("--translation", "translation_px", float, "max translation, px"),
    ("--dropout", "dropout", float, None),
    ("--insertion", "insertion", float, None),
    ("--noise-std", "noise_std", float, None),
    ("--seed", "seed", int, None),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpbits",
        description="fixed-length binary fingerprint representations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    for flag, name, kind, text in _SYNTH_FLAGS:
        p.add_argument(flag, dest=name, type=kind, default=argparse.SUPPRESS, help=text)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="fit a pipeline model")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="config file (key = value lines)")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override one config key (repeatable)")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("encode", help="bit-strings for every impression")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("enroll", help="train per-finger masks")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_enroll)

    p = sub.add_parser("match", help="score explicit pairs")
    p.add_argument("--kind", choices=["lgs", "bits", "masked"], required=True)
    p.add_argument("--pairs", required=True,
                   help="file of 'subj_a imp_a subj_b imp_b' lines")
    p.add_argument("--model")
    p.add_argument("--dataset")
    p.add_argument("--bits-dir")
    p.add_argument("--fingers-dir")
    p.add_argument("--out")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("evaluate", help="verification protocol and EER")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--matcher", choices=["lgs", "bits", "split"], default="bits")
    p.add_argument("--fold", type=int, help="fold bit-strings to this length first")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compress", help="EER over folded lengths")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--lengths", required=True, help="comma-separated fold lengths")
    p.add_argument("--out")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("inspect", help="print artifact statistics")
    p.add_argument("--model")
    p.add_argument("--bits")
    p.add_argument("--finger")
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "match":
        if args.kind == "lgs" and not (args.model and args.dataset):
            parser.error("match --kind lgs needs --model and --dataset")
        if args.kind in ("bits", "masked") and not args.bits_dir:
            parser.error(f"match --kind {args.kind} needs --bits-dir")
        if args.kind == "masked" and not (args.fingers_dir and args.model):
            parser.error("match --kind masked needs --fingers-dir and --model")

    try:
        return args.func(args)
    except FpbitsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
