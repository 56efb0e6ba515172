"""Command-line driver for sweeps, table dumps, and verification runs.

Subcommands:

- ``rmat``     exchange matrix at a point as JSON, or residual sweeps
- ``weights``  specialization, orthogonality, and restriction tables
- ``gtbasis``  eigenbasis change-of-basis matrix for one shape class
- ``shuffle``  star-product expansion over the function basis
- ``verify``   named residual suites with a machine-readable report

All inputs come from flags or from a flat ``key = value`` config file
(flags override the file).  Random draws are fully determined by the
seed.  Complex numbers serialize as ``[re, im]`` pairs in JSON and as
two adjacent columns in CSV.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .gtrep import x_matrix_via_recursion, x_matrix_via_weights
from .partitions import IndexPartition, partitions_with_shape
from .rmatrix import (
    DynamicalParameter,
    dybe_residual,
    random_dynamical,
    random_spectral,
    rbar_matrix,
    relative_defect,
    unitarity_residual,
)
from .shuffle import (
    expansion_residual,
    from_weight_function,
    star,
    tilde_expansion,
)
from .theta import EllipticParams
from .verify import (
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

_CONFIG_KEYS = (
    "q",
    "r",
    "N",
    "lambda",
    "n",
    "seed",
    "tol",
    "truncation",
    "samples",
    "workers",
    "out",
    "u",
    "P",
    "z_values",
    "check",
    "left",
    "right",
    "suite",
    "inject_bug",
)


@dataclass(frozen=True)
class RunConfig:
    """Resolved command inputs after merging flags, file, and defaults."""

    q: float = 0.5
    r: float = 3.0
    rank: int | None = None
    shape: tuple[int, ...] | None = None
    n: int | None = None
    seed: int = 2026
    tol: float = 1e-8
    truncation: int | None = None
    samples: int = 50
    workers: int = 1
    out: str | None = None
    u: complex = 0.2
    p_values: tuple[float, ...] | None = None
    z_values: tuple[complex, ...] | None = None
    check: str | None = None
    left: str = "1"
    right: str = "2"
    suites: tuple[str, ...] | None = None
    inject_bug: bool = False

    def params(self, rank: int | None = None) -> EllipticParams:
        resolved = rank if rank is not None else self.resolved_rank()
        return EllipticParams(
            q=self.q, r=self.r, N=resolved, truncation_order=self.truncation
        )

    def resolved_rank(self) -> int:
        if self.rank is not None:
            return self.rank
        if self.shape is not None:
            return len(self.shape)
        return 2

    def resolved_shape(self) -> tuple[int, ...]:
        if self.shape is not None:
            return self.shape
        if self.n is not None:
            rank = self.resolved_rank()
            base, extra = divmod(self.n, rank)
            return tuple(
                base + (1 if index < extra else 0) for index in range(rank)
            )
        return (2, 1) if self.resolved_rank() == 2 else (1, 1, 1)

    def validate(self) -> None:
        if self.rank is not None and self.shape is not None:
            if len(self.shape) != self.rank:
                raise SystemExit(
                    "error: --lambda must have exactly N parts"
                )
        if self.shape is not None and self.n is not None:
            if sum(self.shape) != self.n:
                raise SystemExit("error: --lambda must sum to --n")

    def dynamical(
        self, params: EllipticParams, rng: np.random.Generator
    ) -> DynamicalParameter:
        if self.p_values is None:
            return random_dynamical(rng, params)
        values = list(self.p_values)
        if len(values) > params.N:
            raise SystemExit("error: --P has more components than N")
        values.extend([0.0] * (params.N - len(values)))
        return DynamicalParameter.from_values(
            [complex(value) for value in values]
        )

    def spectral(
        self, count: int, rng: np.random.Generator
    ) -> list[complex]:
        if self.z_values is None:
            return random_spectral(rng, count)
        if len(self.z_values) != count:
            raise SystemExit(
                f"error: z_values must hold exactly {count} entries"
            )
        return list(self.z_values)


# ---------------------------------------------------------------------------
# parsing helpers


def _parse_complex(text: str) -> complex:
    parts = [piece.strip() for piece in text.split(",")]
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise ValueError(f"cannot parse complex value from {text!r}")


def _parse_complex_list(text: str) -> tuple[complex, ...]:
    entries = [piece for piece in text.split(";") if piece.strip()]
    return tuple(_parse_complex(entry) for entry in entries)


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(
        float(piece) for piece in text.split(",") if piece.strip()
    )


def _parse_shape(text: str) -> tuple[int, ...]:
    return tuple(int(piece) for piece in text.split(",") if piece.strip())


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"cannot parse boolean from {text!r}")


def load_config_file(path: str) -> dict[str, str]:
    """Flat key=value lines; # starts a comment; blank lines skipped."""
    values: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SystemExit(f"error: malformed config line {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise SystemExit(f"error: unknown config key {key!r}")
        values[key] = value.strip()
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge CLI flags over config-file values over defaults."""
    file_values: dict[str, str] = {}
    if getattr(args, "config", None):
        file_values = load_config_file(args.config)

    def pick(flag: str, key: str | None = None) -> str | None:
        flag_value = getattr(args, flag, None)
        if flag_value is not None:
            return flag_value
        return file_values.get(key if key is not None else flag)

    suites_text = pick("suite")
    suites = None
    if suites_text:
        suites = tuple(
            piece.strip()
            for piece in suites_text.split(",")
            if piece.strip()
        )
    inject_text = pick("inject_bug")
    shape_text = pick("shape", "lambda")
    u_text = pick("u")
    p_text = pick("P")
    z_text = pick("z_values")
    return RunConfig(
        q=float(pick("q") or 0.5),
        r=float(pick("r") or 3.0),
        rank=int(pick("N")) if pick("N") else None,
        shape=_parse_shape(shape_text) if shape_text else None,
        n=int(pick("n")) if pick("n") else None,
        seed=int(pick("seed") or 2026),
        tol=float(pick("tol") or 1e-8),
        truncation=int(pick("truncation")) if pick("truncation") else None,
        samples=int(pick("samples") or 50),
        workers=int(pick("workers") or 1),
        out=pick("out"),
        u=_parse_complex(u_text) if u_text else complex(0.2),
        p_values=_parse_float_list(p_text) if p_text else None,
        z_values=_parse_complex_list(z_text) if z_text else None,
        check=pick("check"),
        left=pick("left") or "1",
        right=pick("right") or "2",
        suites=suites,
        inject_bug=(
            _parse_bool(inject_text) if inject_text is not None else False
        ),
    )


# ---------------------------------------------------------------------------
# serialization helpers


def _pair(value: complex) -> list[float]:
    return [float(value.real), float(value.imag)]


def _matrix_pairs(matrix: np.ndarray) -> list[list[list[float]]]:
    return [[_pair(entry) for entry in row] for row in matrix]


def _emit_json(payload: dict, out: str | None, default_name: str) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out is None:
        print(text)
        return
    path = Path(out)
    if path.is_dir() or not path.suffix:
        path = path / default_name
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


def _out_dir(cfg: RunConfig) -> Path:
    return Path(cfg.out) if cfg.out else Path(".")


# ---------------------------------------------------------------------------
# subcommands


def cmd_rmat(cfg: RunConfig) -> int:
    cfg.validate()
    params = cfg.params(cfg.rank if cfg.rank else 2)
    rng = np.random.default_rng(cfg.seed)
    dyn = cfg.dynamical(params, rng)

    if cfg.check:
        if cfg.check not in ("dybe", "unitarity"):
            raise SystemExit("error: --check must be dybe or unitarity")
        rows = []
        worst = 0.0
        for index in range(cfg.samples):
            if cfg.check == "dybe":
                us = tuple(random_spectral(rng, 3))
                sample_dyn = cfg.dynamical(params, rng)
                residual = dybe_residual(params, us, sample_dyn)
                row = [index]
                for u in us:
                    row.extend([u.real, u.imag])
                row.append(residual)
            else:
                (u,) = random_spectral(rng, 1)
                sample_dyn = cfg.dynamical(params, rng)
                residual = unitarity_residual(params, u, sample_dyn)
                row = [index, u.real, u.imag, residual]
            rows.append(row)
            worst = max(worst, residual)
        if cfg.check == "dybe":
            header = [
                "sample",
                "u1_re",
                "u1_im",
                "u2_re",
                "u2_im",
                "u3_re",
                "u3_im",
                "residual",
            ]
        else:
            header = ["sample", "u_re", "u_im", "residual"]
        if cfg.out:
            path = Path(cfg.out)
            if path.is_dir() or not path.suffix:
                path = path / f"rmat_{cfg.check}.csv"
            _csv_rows(path, header, rows)
        else:
            print(",".join(header))
            for row in rows:
                print(",".join(str(entry) for entry in row))
        passed = worst <= cfg.tol
        print(
            f"{cfg.check}: {cfg.samples} samples,"
            f" max residual {worst:.3e},"
            f" {'pass' if passed else 'FAIL'} at tol {cfg.tol:.1e}"
        )
        return 0 if passed else 1

    matrix = rbar_matrix(params, cfg.u, dyn)
    payload = {
        "q": params.q if isinstance(params.q, float) else _pair(params.q),
        "r": params.r,
        "N": params.N,
        "u": _pair(complex(cfg.u)),
        "P": [_pair(value) for value in dyn.values],
        "basis": "pair indices (mu, nu) in row-major order, mu fastest last",
        "matrix": _matrix_pairs(matrix),
        "version": __version__,
    }
    _emit_json(payload, cfg.out, "rmat.json")
    return 0


def cmd_weights(cfg: RunConfig) -> int:
    cfg.validate()
    shape = cfg.resolved_shape()
    params = cfg.params(len(shape))
    n = sum(shape)
    rng = np.random.default_rng(cfg.seed)
    us = cfg.spectral(n, rng)
    dyn = cfg.dynamical(params, rng)
    parts = partitions_with_shape(shape)
    words = [part.word_string() for part in parts]
    out_dir = _out_dir(cfg)

    spec_rows = []
    for anchor, word_row in zip(parts, words):
        point = specialization_point(anchor, us)
        row: list = [word_row]
        for value in weight_row(params, parts, point, us, dyn, "tilde"):
            row.extend([value.real, value.imag])
        spec_rows.append(row)
    spec_header = ["anchor"]
    for word in words:
        spec_header.extend([f"{word}_re", f"{word}_im"])
    _csv_rows(out_dir / "weights_specialization.csv", spec_header, spec_rows)

    gram = orthogonality_grid(params, shape, us, dyn)
    gram_rows = []
    for word_row, row in zip(words, gram):
        csv_row: list = [word_row]
        for entry in row:
            csv_row.extend([entry.real, entry.imag])
        gram_rows.append(csv_row)
    _csv_rows(out_dir / "weights_orthogonality.csv", spec_header, gram_rows)

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
    passed = grid_defect <= max(cfg.tol, 1e-6)
    print(
        f"shape {shape}: {len(parts)} classes,"
        f" orthogonality defect {grid_defect:.3e},"
        f" {'pass' if passed else 'FAIL'}"
    )
    return 0 if passed else 1


def cmd_gtbasis(cfg: RunConfig) -> int:
    cfg.validate()
    shape = cfg.resolved_shape()
    params = cfg.params(len(shape))
    n = sum(shape)
    rng = np.random.default_rng(cfg.seed)
    us = cfg.spectral(n, rng)
    dyn = cfg.dynamical(params, rng)
    parts = partitions_with_shape(shape)
    words = [part.word_string() for part in parts]

    matrix = x_matrix_via_recursion(params, shape, us, dyn)
    defect = relative_defect(
        matrix, x_matrix_via_weights(params, shape, us, dyn)
    )

    rows = []
    for word_row, row in zip(words, matrix):
        csv_row: list = [word_row]
        for entry in row:
            csv_row.extend([entry.real, entry.imag])
        rows.append(csv_row)
    header = ["eigenvector"]
    for word in words:
        header.extend([f"{word}_re", f"{word}_im"])
    _csv_rows(_out_dir(cfg) / "gtbasis_matrix.csv", header, rows)

    payload = {
        "shape": list(shape),
        "words": words,
        "z": [_pair(u) for u in us],
        "P": [_pair(value) for value in dyn.values],
        "recursion_vs_weights_defect": defect,
        "version": __version__,
    }
    _emit_json(payload, None, "gtbasis.json")
    passed = defect <= max(cfg.tol, 1e-6)
    return 0 if passed else 1


def cmd_shuffle(cfg: RunConfig) -> int:
    cfg.validate()
    rank = cfg.rank
    if rank is None:
        rank = max(
            2,
            max(int(ch) for ch in cfg.left),
            max(int(ch) for ch in cfg.right),
        )
    params = cfg.params(rank)
    left = IndexPartition.from_word(cfg.left, rank)
    right = IndexPartition.from_word(cfg.right, rank)
    product = star(
        params,
        from_weight_function(params, left),
        from_weight_function(params, right),
    )
    n = left.n + right.n
    rng = np.random.default_rng(cfg.seed)
    us = cfg.spectral(n, rng)
    dyn = cfg.dynamical(params, rng)
    parts, coeffs = tilde_expansion(params, product, us, dyn)
    levels = [
        list(random_spectral(rng, int(size))) if size else []
        for size in product.level_sizes
    ]
    residual = expansion_residual(
        params, product, parts, coeffs, levels, us, dyn
    )
    payload = {
        "left": cfg.left,
        "right": cfg.right,
        "words": [part.word_string() for part in parts],
        "coefficients": [_pair(coeff) for coeff in coeffs],
        "expansion_residual": residual,
        "version": __version__,
    }
    _emit_json(payload, cfg.out, "shuffle.json")
    return 0 if residual <= max(cfg.tol, 1e-6) else 1


def cmd_verify(cfg: RunConfig) -> int:
    cfg.validate()
    verify_cfg = VerifyConfig(
        q=cfg.q,
        r=cfg.r,
        rank=cfg.rank,
        shape=cfg.shape,
        n=cfg.n,
        seed=cfg.seed,
        tol=cfg.tol,
        samples=cfg.samples,
        truncation_order=cfg.truncation,
        inject_bug=cfg.inject_bug,
    )
    suites = cfg.suites if cfg.suites else SUITES
    unknown = [name for name in suites if name not in SUITES]
    if unknown:
        raise SystemExit(
            f"error: unknown suite {unknown[0]!r};"
            f" choose from {', '.join(SUITES)}"
        )
    report = run_suites(verify_cfg, suites, workers=cfg.workers)
    _emit_json(report, cfg.out, "verify_report.json")
    summary = ", ".join(
        f"{entry['suite']}:{entry['max_residual']:.2e}"
        for entry in report["suites"]
    )
    status = "pass" if report["pass"] else "FAIL"
    print(
        f"verify {status} (tol {cfg.tol:.1e},"
        f" digest {config_digest(verify_cfg)}): {summary}"
    )
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config", help="flat key=value config file; flags override it"
    )
    parser.add_argument("--q", help="elliptic base, 0 < |q| < 1")
    parser.add_argument("--r", help="real period of the bracket")
    parser.add_argument("--N", help="matrix rank")
    parser.add_argument(
        "--lambda",
        dest="shape",
        help="block sizes, comma separated, e.g. 2,2,1",
    )
    parser.add_argument("--n", help="number of tensor sites")
    parser.add_argument("--seed", help="seed fixing all random draws")
    parser.add_argument("--tol", help="pass/fail residual tolerance")
    parser.add_argument(
        "--truncation", help="fixed product truncation order"
    )
    parser.add_argument("--samples", help="random samples per check")
    parser.add_argument("--workers", help="parallel worker count")
    parser.add_argument(
        "--out", help="output file or directory (stdout when omitted)"
    )


def build_parser() -> argparse.ArgumentParser:
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

    rmat = sub.add_parser(
        "rmat", help="exchange matrix at a point, or residual sweeps"
    )
    _add_common(rmat)
    rmat.add_argument(
        "--u", help="spectral argument, 're' or 're,im' (default 0.2)"
    )
    rmat.add_argument(
        "--P",
        help="dynamical components, comma separated, padded with zeros",
    )
    rmat.add_argument(
        "--check",
        choices=("dybe", "unitarity"),
        help="run a residual sweep instead of dumping the matrix",
    )

    weights = sub.add_parser(
        "weights",
        help="specialization, orthogonality, and restriction tables",
    )
    _add_common(weights)
    weights.add_argument("--P", help="dynamical components")
    weights.add_argument(
        "--z-values",
        dest="z_values",
        help="spectral points, ';' separated complex entries",
    )

    gtbasis = sub.add_parser(
        "gtbasis", help="eigenbasis change-of-basis matrix for one shape"
    )
    _add_common(gtbasis)
    gtbasis.add_argument("--P", help="dynamical components")
    gtbasis.add_argument(
        "--z-values", dest="z_values", help="spectral points"
    )

    shuffle = sub.add_parser(
        "shuffle", help="star-product expansion over the function basis"
    )
    _add_common(shuffle)
    shuffle.add_argument("--left", help="left factor word (default 1)")
    shuffle.add_argument("--right", help="right factor word (default 2)")

    verify = sub.add_parser(
        "verify", help="run residual suites and write a JSON report"
    )
    _add_common(verify)
    verify.add_argument(
        "--suite",
        help=f"comma-separated suites from {', '.join(SUITES)}"
        " (default all)",
    )
    verify.add_argument(
        "--inject-bug",
        dest="inject_bug",
        action="store_const",
        const="true",
        help="negate one exchange entry to demonstrate failure detection",
    )
    return parser


_COMMANDS = {
    "rmat": cmd_rmat,
    "weights": cmd_weights,
    "gtbasis": cmd_gtbasis,
    "shuffle": cmd_shuffle,
    "verify": cmd_verify,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = resolve_config(args)
    return _COMMANDS[args.command](cfg)


if __name__ == "__main__":
    sys.exit(main())
