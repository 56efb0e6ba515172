"""Command-line driver for sweeps, table dumps, and verification runs.

Subcommands:

- ``rmat``     exchange matrix at a point as JSON, or residual sweeps
- ``weights``  specialization, orthogonality, and restriction tables
- ``gtbasis``  eigenbasis change-of-basis matrix for one shape class
- ``shuffle``  star-product expansion over the function basis
- ``verify``   named residual suites with a machine-readable report

The parser is built from one table of flags keyed by their config-file
names (``_FLAGS``: type, default, help), and each subcommand lists the
keys it reads (``_COMMANDS``); it accepts those flags and no others.
A ``--config`` file of flat ``key = value`` lines is checked against the
same list, converted by the same type functions, and applied as parser
defaults, so flags override the file.  Random draws are fully
determined by the seed.  Complex numbers serialize as ``[re, im]`` pairs
in JSON and as two adjacent columns in CSV.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import __version__
from .gtrep import x_matrix_via_recursion, x_matrix_via_weights
from .partitions import IndexPartition, partitions_with_shape
from .rmatrix import (
    DynamicalParameter,
    dybe_residual,
    random_dynamical,
    random_levels,
    random_spectral,
    rbar_matrix,
    relative_defect,
    unitarity_residual,
    worst_residual,
)
from .shuffle import (
    expansion_residual,
    from_weight_function,
    star,
    tilde_expansion,
)
from .theta import EllipticParams
from .verify import (
    INVERSION_TOL,
    SUITES,
    VerifyConfig,
    config_digest,
    run_suites,
)
from .weights import (
    orthogonality_grid,
    restriction_row,
    specialization_point,
    weight_row,
)

# ---------------------------------------------------------------------------
# parsing helpers


def _parse_complex(text: str) -> complex:
    parts = [piece.strip() for piece in text.split(",")]
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise ValueError(f"cannot parse complex value from {text!r}")


def _split(text: str, sep: str) -> list[str]:
    """The nonempty pieces of ``text``; an empty value is an error."""
    pieces = [piece.strip() for piece in text.split(sep) if piece.strip()]
    if not pieces:
        raise ValueError("empty value")
    return pieces


def _parse_complex_list(text: str) -> tuple[complex, ...]:
    return tuple(_parse_complex(entry) for entry in _split(text, ";"))


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(piece) for piece in _split(text, ","))


def _parse_shape(text: str) -> tuple[int, ...]:
    return tuple(int(piece) for piece in _split(text, ","))


def _parse_text(text: str) -> str:
    if not text.strip():
        raise ValueError("empty value")
    return text


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"cannot parse boolean from {text!r}")


def _parse_names(text: str) -> tuple[str, ...]:
    return tuple(_split(text, ","))


class _Flag(NamedTuple):
    type: Callable[[str], Any]
    default: Any
    help: str
    choices: tuple[str, ...] | None = None


# Every flag, keyed by its config-file name; the flag is ``--`` plus the
# name with ``_`` written as ``-``.  Boolean keys are bare flags.
_FLAGS: dict[str, _Flag] = {
    "q": _Flag(float, 0.5, "elliptic base, 0 < |q| < 1"),
    "r": _Flag(float, 3.0, "real period of the bracket"),
    "N": _Flag(int, None, "matrix rank"),
    "lambda": _Flag(
        _parse_shape, None, "block sizes, comma separated, e.g. 2,2,1"
    ),
    "n": _Flag(int, None, "number of tensor sites"),
    "seed": _Flag(int, 2026, "seed fixing all random draws"),
    "tol": _Flag(float, 1e-8, "pass/fail residual tolerance"),
    "truncation": _Flag(int, None, "fixed product truncation order"),
    "samples": _Flag(int, 50, "random samples per check"),
    "workers": _Flag(int, 1, "parallel worker count"),
    "out": _Flag(
        _parse_text, None, "output file or directory (stdout when omitted)"
    ),
    "u": _Flag(
        _parse_complex,
        0.2 + 0j,
        "spectral argument, 're' or 're,im' (default 0.2)",
    ),
    "P": _Flag(
        _parse_float_list,
        None,
        "dynamical components, comma separated, padded with zeros",
    ),
    "z_values": _Flag(
        _parse_complex_list,
        None,
        "spectral points, ';' separated complex entries",
    ),
    "check": _Flag(
        str,
        None,
        "run a residual sweep instead of dumping the matrix",
        ("dybe", "unitarity"),
    ),
    "left": _Flag(_parse_text, "1", "left factor word (default 1)"),
    "right": _Flag(_parse_text, "2", "right factor word (default 2)"),
    "suite": _Flag(
        _parse_names,
        None,
        f"comma-separated suites from {', '.join(SUITES)} (default all)",
    ),
    "inject_bug": _Flag(
        _parse_bool,
        False,
        "negate one exchange entry to demonstrate failure detection",
    ),
}


def load_config_file(path: str, command: str) -> dict[str, Any]:
    """The values of a flat key=value file, converted like the flags.

    ``#`` starts a comment and blank lines are skipped.  A key that
    ``command`` does not read is an error, as an unknown flag is; so is
    a key without a value, which no type function accepts.
    """
    keys = _COMMANDS[command][2]
    values: dict[str, Any] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SystemExit(f"error: malformed config line {raw!r}")
        key, _, text = (piece.strip() for piece in line.partition("="))
        if key not in keys:
            raise SystemExit(
                f"error: config key {key!r} is not read by {command}"
            )
        flag = _FLAGS[key]
        try:
            value = flag.type(text)
        except ValueError as exc:
            raise SystemExit(f"error: config key {key!r}: {exc}") from None
        if flag.choices and value not in flag.choices:
            raise SystemExit(
                f"error: config key {key!r} must be one of"
                f" {', '.join(flag.choices)}"
            )
        values[key] = value
    return values


def _shape(args: argparse.Namespace) -> tuple[int, ...]:
    """``--lambda``, or N parts as even as possible summing to ``--n``;
    with neither, (2, 1) for N = 2 and N parts of 1 above."""
    shape = getattr(args, "lambda")
    if shape is not None:
        if args.N is not None and len(shape) != args.N:
            raise SystemExit("error: --lambda must have exactly N parts")
        if args.n is not None and sum(shape) != args.n:
            raise SystemExit("error: --lambda must sum to --n")
        return shape
    rank = args.N if args.N is not None else 2
    if args.n is not None:
        base, extra = divmod(args.n, rank)
        return tuple(base + (1 if index < extra else 0) for index in range(rank))
    return (2, 1) if rank == 2 else (1,) * rank


def _params(args: argparse.Namespace, rank: int) -> EllipticParams:
    try:
        return EllipticParams(
            q=args.q, r=args.r, N=rank, truncation_order=args.truncation
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None


def _dynamical(
    args: argparse.Namespace,
    params: EllipticParams,
    rng: np.random.Generator,
) -> DynamicalParameter:
    """``--P`` padded with zeros to N components, or a random draw."""
    if args.P is None:
        return random_dynamical(rng, params)
    if len(args.P) > params.N:
        raise SystemExit("error: --P has more components than N")
    values = list(args.P) + [0.0] * (params.N - len(args.P))
    return DynamicalParameter.from_values([complex(v) for v in values])


def _spectral(
    args: argparse.Namespace, count: int, rng: np.random.Generator
) -> list[complex]:
    """``--z-values`` (exactly ``count`` of them), or a random draw."""
    if args.z_values is None:
        return random_spectral(rng, count)
    if len(args.z_values) != count:
        raise SystemExit(f"error: z_values must hold exactly {count} entries")
    return list(args.z_values)


# ---------------------------------------------------------------------------
# serialization helpers


def _pair(value: complex) -> list[float]:
    return [float(value.real), float(value.imag)]


def _matrix_pairs(matrix: np.ndarray) -> list[list[list[float]]]:
    return [[_pair(entry) for entry in row] for row in matrix]


def _out_path(out: str, default_name: str) -> Path:
    """``--out`` names a file, or a directory when it has no suffix."""
    path = Path(out)
    if path.is_dir() or not path.suffix:
        path = path / default_name
    return path


def _emit_json(payload: dict, out: str | None, default_name: str) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out is None:
        print(text)
        return
    path = _out_path(out, default_name)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n")
    print(f"wrote {path}")


def _csv_rows(
    path: Path, header: Sequence[str], rows: Sequence[Sequence]
) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {path}")


def _complex_table(
    path: Path, label: str, words: Sequence[str], rows: Sequence[Sequence[complex]]
) -> None:
    """One CSV row per word: the word, then a ``_re``/``_im`` column pair
    per entry, headed by the words in the same order."""
    header = [label]
    for word in words:
        header.extend([f"{word}_re", f"{word}_im"])
    lines = []
    for word, row in zip(words, rows):
        line: list = [word]
        for value in row:
            line.extend([value.real, value.imag])
        lines.append(line)
    _csv_rows(path, header, lines)


# ---------------------------------------------------------------------------
# subcommands


def cmd_rmat(args: argparse.Namespace) -> int:
    params = _params(args, args.N or 2)
    rng = np.random.default_rng(args.seed)
    dyn = _dynamical(args, params, rng)

    if args.check:
        rows = []
        for index in range(args.samples):
            if args.check == "dybe":
                us = tuple(random_spectral(rng, 3))
                sample_dyn = _dynamical(args, params, rng)
                residual = dybe_residual(params, us, sample_dyn)
                row = [index]
                for u in us:
                    row.extend([u.real, u.imag])
                row.append(residual)
            else:
                (u,) = random_spectral(rng, 1)
                sample_dyn = _dynamical(args, params, rng)
                residual = unitarity_residual(params, u, sample_dyn)
                row = [index, u.real, u.imag, residual]
            rows.append(row)
        worst = worst_residual(row[-1] for row in rows)
        if args.check == "dybe":
            points = ["u1_re", "u1_im", "u2_re", "u2_im", "u3_re", "u3_im"]
        else:
            points = ["u_re", "u_im"]
        header = ["sample", *points, "residual"]
        if args.out:
            path = _out_path(args.out, f"rmat_{args.check}.csv")
            _csv_rows(path, header, rows)
        else:
            print(",".join(header))
            for row in rows:
                print(",".join(str(entry) for entry in row))
        passed = worst <= args.tol
        print(
            f"{args.check}: {args.samples} samples,"
            f" max residual {worst:.3e},"
            f" {'pass' if passed else 'FAIL'} at tol {args.tol:.1e}"
        )
        return 0 if passed else 1

    matrix = rbar_matrix(params, args.u, dyn)
    payload = {
        "q": params.q if isinstance(params.q, float) else _pair(params.q),
        "r": params.r,
        "N": params.N,
        "u": _pair(complex(args.u)),
        "P": [_pair(value) for value in dyn.values],
        "basis": "pair indices (mu, nu) in row-major order, mu fastest last",
        "matrix": _matrix_pairs(matrix),
        "version": __version__,
    }
    _emit_json(payload, args.out, "rmat.json")
    return 0


def cmd_weights(args: argparse.Namespace) -> int:
    shape = _shape(args)
    params = _params(args, len(shape))
    n = sum(shape)
    rng = np.random.default_rng(args.seed)
    us = _spectral(args, n, rng)
    dyn = _dynamical(args, params, rng)
    parts = partitions_with_shape(shape)
    words = [part.word_string() for part in parts]
    out_dir = Path(args.out or ".")

    spec = [
        weight_row(params, parts, specialization_point(anchor, us), us, dyn, "tilde")
        for anchor in parts
    ]
    _complex_table(out_dir / "weights_specialization.csv", "anchor", words, spec)

    gram = orthogonality_grid(params, shape, us, dyn)
    _complex_table(out_dir / "weights_orthogonality.csv", "anchor", words, gram)

    restrict = [restriction_row(params, parts, at, us, dyn) for at in parts]
    restrict_rows = []
    for j, word_row in enumerate(words):
        for i, word_col in enumerate(words):
            value = restrict[i][j]
            restrict_rows.append(
                [word_row, word_col, value.real, value.imag]
            )
    _csv_rows(
        out_dir / "weights_restriction.csv",
        ["class", "fixed_point", "value_re", "value_im"],
        restrict_rows,
    )

    grid_defect = relative_defect(gram, np.eye(len(parts), dtype=complex))
    passed = grid_defect <= max(args.tol, INVERSION_TOL)
    print(
        f"shape {shape}: {len(parts)} classes,"
        f" orthogonality defect {grid_defect:.3e},"
        f" {'pass' if passed else 'FAIL'}"
    )
    return 0 if passed else 1


def cmd_gtbasis(args: argparse.Namespace) -> int:
    shape = _shape(args)
    params = _params(args, len(shape))
    n = sum(shape)
    rng = np.random.default_rng(args.seed)
    us = _spectral(args, n, rng)
    dyn = _dynamical(args, params, rng)
    parts = partitions_with_shape(shape)
    words = [part.word_string() for part in parts]

    matrix = x_matrix_via_recursion(params, shape, us, dyn)
    defect = relative_defect(
        matrix, x_matrix_via_weights(params, shape, us, dyn)
    )

    _complex_table(
        Path(args.out or ".") / "gtbasis_matrix.csv", "eigenvector", words, matrix
    )

    payload = {
        "shape": list(shape),
        "words": words,
        "z": [_pair(u) for u in us],
        "P": [_pair(value) for value in dyn.values],
        "recursion_vs_weights_defect": defect,
        "version": __version__,
    }
    _emit_json(payload, args.out, "gtbasis.json")
    return 0 if defect <= max(args.tol, INVERSION_TOL) else 1


def cmd_shuffle(args: argparse.Namespace) -> int:
    words = {"--left": args.left, "--right": args.right}
    for flag, word in words.items():
        if not (word.isascii() and word.isdigit()):
            raise SystemExit(f"error: {flag} must be a word of digits, got {word!r}")
    rank = args.N
    if rank is None:
        rank = max(2, *(int(ch) for word in words.values() for ch in word))
    params = _params(args, rank)
    for flag, word in words.items():
        if not all(1 <= int(ch) <= rank for ch in word):
            raise SystemExit(f"error: {flag} letters must lie in [1, {rank}]")
    left = IndexPartition.from_word(args.left, rank)
    right = IndexPartition.from_word(args.right, rank)
    product = star(
        params,
        from_weight_function(params, left),
        from_weight_function(params, right),
    )
    n = left.n + right.n
    rng = np.random.default_rng(args.seed)
    us = random_spectral(rng, n)
    dyn = random_dynamical(rng, params)
    parts, coeffs = tilde_expansion(params, product, us, dyn)
    levels = random_levels(rng, product.level_sizes)
    residual = expansion_residual(
        params, product, parts, coeffs, levels, us, dyn
    )
    payload = {
        "left": args.left,
        "right": args.right,
        "words": [part.word_string() for part in parts],
        "coefficients": [_pair(coeff) for coeff in coeffs],
        "expansion_residual": residual,
        "version": __version__,
    }
    _emit_json(payload, args.out, "shuffle.json")
    return 0 if residual <= max(args.tol, INVERSION_TOL) else 1


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        cfg = VerifyConfig(
            q=args.q,
            r=args.r,
            rank=args.N,
            shape=getattr(args, "lambda"),
            n=args.n,
            seed=args.seed,
            tol=args.tol,
            samples=args.samples,
            truncation_order=args.truncation,
            inject_bug=args.inject_bug,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    suites = args.suite or SUITES
    unknown = [name for name in suites if name not in SUITES]
    if unknown:
        raise SystemExit(
            f"error: unknown suite {unknown[0]!r};"
            f" choose from {', '.join(SUITES)}"
        )
    report = run_suites(cfg, suites, workers=args.workers)
    _emit_json(report, args.out, "verify_report.json")
    summary = ", ".join(
        f"{entry['suite']}:{entry['max_residual']:.2e}"
        for entry in report["suites"]
    )
    status = "pass" if report["pass"] else "FAIL"
    print(
        f"verify {status} (tol {args.tol:.1e},"
        f" digest {config_digest(cfg)}): {summary}"
    )
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------------------
# argument parsing

# Each subcommand with its help line and the config keys (and so the
# flags) it reads.
_COMMANDS = {
    "rmat": (
        cmd_rmat,
        "exchange matrix at a point, or residual sweeps",
        ("q", "r", "N", "seed", "tol", "truncation", "samples", "out",
         "u", "P", "check"),
    ),
    "weights": (
        cmd_weights,
        "specialization, orthogonality, and restriction tables",
        ("q", "r", "N", "lambda", "n", "seed", "tol", "truncation", "out",
         "P", "z_values"),
    ),
    "gtbasis": (
        cmd_gtbasis,
        "eigenbasis change-of-basis matrix for one shape",
        ("q", "r", "N", "lambda", "n", "seed", "tol", "truncation", "out",
         "P", "z_values"),
    ),
    "shuffle": (
        cmd_shuffle,
        "star-product expansion over the function basis",
        ("q", "r", "N", "seed", "tol", "truncation", "out", "left",
         "right"),
    ),
    "verify": (
        cmd_verify,
        "run residual suites and write a JSON report",
        ("q", "r", "N", "lambda", "n", "seed", "tol", "truncation",
         "samples", "workers", "out", "suite", "inject_bug"),
    ),
}


def build_parser(
    defaults: Mapping[str, Any] | None = None,
) -> argparse.ArgumentParser:
    """The ``ellgt`` parser; ``defaults`` (config values) replace the
    table defaults of the flags that read them."""
    defaults = defaults or {}
    parser = argparse.ArgumentParser(
        prog="ellgt",
        description=(
            "Elliptic exchange matrices, weight functions, and tensor"
            " modules: table dumps and verification suites."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"ellgt {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, keys) in _COMMANDS.items():
        command_parser = sub.add_parser(command, help=help_text)
        command_parser.add_argument(
            "--config", help="flat key=value config file; flags override it"
        )
        for key in keys:
            flag = _FLAGS[key]
            if flag.type is _parse_bool:
                kind = {"action": "store_true"}
            else:
                kind = {"type": flag.type, "choices": flag.choices}
            command_parser.add_argument(
                "--" + key.replace("_", "-"),
                dest=key,
                default=defaults.get(key, flag.default),
                help=flag.help,
                **kind,
            )
    return parser


def parse_args(argv: Sequence[str] | None = None) -> argparse.Namespace:
    """Flags over the ``--config`` file over the table defaults."""
    args = build_parser().parse_args(argv)
    if args.config:
        defaults = load_config_file(args.config, args.command)
        args = build_parser(defaults).parse_args(argv)
    return args


def main(argv: Sequence[str] | None = None) -> int:
    args = parse_args(argv)
    return _COMMANDS[args.command][0](args)


if __name__ == "__main__":
    sys.exit(main())
