"""Deterministic inputs, `gap` argument lists and output checks for the
four benchmark workloads.

Every input is a pure function of the workload name, the seed and the
respondent count.  Large shapes are drawn with numpy; the case study uses
``satmetric.generate_synthetic`` so its column means equal the published
means exactly.  Alongside the files, ``make`` returns an oracle: the
accepted expectation/perception matrices and the rejected-row counts per
``RowError.code`` that the program must reproduce.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("xyz_batch", "tall", "wide", "tall_dirty")

#: Respondents of the synthetic shapes; ``wide`` has 30 items per dimension.
FULL_N = {"tall": 50_000, "wide": 1_000, "tall_dirty": 50_000}
WIDE_ITEMS_PER_DIMENSION = 30

XYZ_OVERALL_WEIGHTED_SUM = -25.25148048
DIMENSIONS = ("reliability", "responsiveness", "assurance", "empathy", "tangibles")
IMPORTANCE_COLUMNS = ("tangibles", "reliability", "responsiveness", "assurance", "empathy")
KANO = ("must_be", "performance", "delighter", "indifferent")

#: Rejection codes injected into each file of ``tall_dirty`` (~2 % of rows each).
LIKERT_CODES = ("missing", "not_an_integer", "out_of_range", "row_length")
IMPORTANCE_CODES = LIKERT_CODES + ("sum_not_100", "not_multiple_of_five")
DIRTY_SHARE = 0.02


@dataclass
class Inputs:
    """Paths handed to the program plus what its report must show."""

    argv: list[str]
    expectation: np.ndarray
    perception: np.ndarray
    importance_rows: int | None
    rejected: dict[str, dict[str, int]] = field(default_factory=dict)
    overall_weighted_sum: float | None = None

    @property
    def report(self) -> Path:
        """The report JSON a successful ``gap`` call writes."""
        stem = Path(self.argv[self.argv.index("--out") + 1])
        return stem.with_name(stem.name + ".report.json")


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _likert(rng: np.random.Generator, n: int, k: int, shift: float) -> np.ndarray:
    """One-factor Likert matrix on 1..5 with item loadings 0.5-0.9."""
    latent = rng.normal(size=(n, 1))
    loading = rng.uniform(0.5, 0.9, size=k)
    x = 3.0 + shift + latent * loading + 0.8 * rng.normal(size=(n, k))
    return np.clip(np.rint(x), 1, 5).astype(np.int64)


def _importance(rng: np.random.Generator, n: int) -> np.ndarray:
    """Rows of five allocations in multiples of five summing to 100."""
    p = np.array([0.09, 0.40, 0.22, 0.17, 0.12])  # IMPORTANCE_COLUMNS order
    return rng.multinomial(20, p, size=n).astype(np.int64) * 5


def _csv(header: list[str], ids: list[str], cells: list[list[str]], crlf=()) -> bytes:
    lines = [",".join(header)]
    lines.extend(f"{rid},{','.join(row)}" for rid, row in zip(ids, cells))
    for i in crlf:
        lines[i] += "\r"
    return ("\n".join(lines) + "\n").encode("utf-8")


def _ids(n: int) -> list[str]:
    return [f"r{i:06d}" for i in range(1, n + 1)]


def _instrument_doc(k_per_dimension: int) -> dict:
    items = []
    for d, dimension in enumerate(DIMENSIONS):
        for j in range(k_per_dimension):
            item_id = d * k_per_dimension + j + 1
            items.append({"id": item_id, "prompt": f"{dimension} item {j + 1}",
                          "dimension": dimension, "kano": KANO[item_id % len(KANO)]})
    return {"scale": {"min": 1, "max": 5}, "items": items}


def _write(path: Path, data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    path.write_bytes(data)
    return str(path)


def _gap_argv(work: Path, instrument: str, expect: str, perceive: str) -> list[str]:
    return ["gap", "--instrument", instrument, "--expect", expect, "--perceive", perceive,
            "--suppress-timestamp", "--out", str(work / "out" / "report")]


def case_study(work: Path, seed: int) -> Inputs:
    """The XYZ study: N=81 rows at the published means, the published
    importance means as --weights, the bundled HoQ and fishbone."""
    from satmetric import xyz
    from satmetric.ingest import ResponseKind, generate_synthetic, serialize_response_set
    from satmetric.instrument import serialize_instrument
    from satmetric.qfd import serialize_hoq
    from satmetric.rootcause import serialize_fishbone

    work.mkdir(parents=True, exist_ok=True)
    instrument = xyz.xyz_instrument()
    matrices = []
    paths = []
    for stream, (kind, means) in enumerate(
            ((ResponseKind.EXPECTATION, xyz.expectation_means()),
             (ResponseKind.PERCEPTION, xyz.perception_means()))):
        rs = generate_synthetic(means, xyz.N_LIKERT, instrument.scale,
                                seed=seed * 2 + stream, kind=kind)
        matrices.append(np.asarray(rs.values))
        paths.append(_write(work / f"{kind.value}.csv",
                            serialize_response_set(rs, instrument)))
    argv = _gap_argv(work, _write(work / "instrument.json",
                                  json.dumps(serialize_instrument(instrument))), *paths)
    argv += [
        "--weights", _write(work / "weights.json", json.dumps(
            {"means": xyz.importance_means(), "n_respondents": xyz.N_IMPORTANCE})),
        "--hoq", _write(work / "hoq.json", json.dumps(serialize_hoq(xyz.load_xyz_hoq()))),
        "--fishbone", _write(work / "fishbone.json",
                             json.dumps(serialize_fishbone(xyz.load_xyz_fishbone()))),
    ]
    return Inputs(argv=argv, expectation=matrices[0], perception=matrices[1],
                  importance_rows=None, overall_weighted_sum=XYZ_OVERALL_WEIGHTED_SUM)


#: Cells and whole allocation rows that trip exactly one rejection code.
BAD_CELL = {"missing": "", "not_an_integer": "3.0", "out_of_range": "6"}
BAD_ALLOCATION = {
    "out_of_range": ["105", "-5", "0", "0", "0"],  # sums to 100, so the range check fires
    "sum_not_100": ["20", "20", "20", "20", "25"],
    "not_multiple_of_five": ["22", "18", "20", "20", "20"],
}
#: Accepted, non-canonical spellings of a valid cell.
DRESSED = ('"{}"', " {} ", "+{}", "{}\t")


def _dirty(rng: np.random.Generator, values: np.ndarray, codes: tuple[str, ...],
           importance: bool) -> tuple[list[list[str]], np.ndarray, dict[str, int], list[int]]:
    """Render ``values`` as CSV cells, break DIRTY_SHARE of the rows per code,
    and dress up valid cells in non-canonical but accepted spellings.

    Returns the cells, the mask of rows the program must accept, the injected
    count per code and the line numbers to end in CRLF.
    """
    n, k = values.shape
    cells = values.astype(str).tolist()
    per_code = max(1, int(n * DIRTY_SHARE))
    bad_rows = rng.permutation(n)[:per_code * len(codes)]
    accepted = np.ones(n, dtype=bool)
    accepted[bad_rows] = False
    for c, code in enumerate(codes):
        for r in bad_rows[c * per_code:(c + 1) * per_code].tolist():
            if code == "row_length":
                cells[r] = cells[r][:-1]
            elif importance and code in BAD_ALLOCATION:
                cells[r] = list(BAD_ALLOCATION[code])
            else:
                cells[r][int(rng.integers(k))] = BAD_CELL[code]
    good = np.flatnonzero(accepted)
    for r in rng.choice(good, size=len(good) // 10, replace=False).tolist():
        col = int(rng.integers(k))
        cells[r][col] = DRESSED[r % len(DRESSED)].format(cells[r][col])
    crlf = (rng.choice(n, size=n // 20, replace=False) + 1).tolist()
    return cells, accepted, {code: per_code for code in codes}, crlf


def _with_blank_lines(data: bytes, rng: np.random.Generator) -> bytes:
    lines = data.split(b"\n")
    for at in sorted(rng.choice(np.arange(2, len(lines) - 1), size=len(lines) // 200,
                                replace=False).tolist(), reverse=True):
        lines.insert(at, b"")
    return b"\n".join(lines)


def synthetic(work: Path, name: str, seed: int, n: int) -> Inputs:
    """``tall``, ``wide`` and ``tall_dirty``: numpy-drawn E/P matrices plus
    (``tall``/``tall_dirty``) a raw importance-allocation CSV."""
    work.mkdir(parents=True, exist_ok=True)
    k_dim = WIDE_ITEMS_PER_DIMENSION if name == "wide" else None
    if k_dim is None:
        from satmetric.instrument import serialize_instrument
        from satmetric.xyz import xyz_instrument
        doc = serialize_instrument(xyz_instrument())
    else:
        doc = _instrument_doc(k_dim)
    k = len(doc["items"])
    header = ["respondent_id"] + [f"q{item['id']}" for item in doc["items"]]
    dirty = name == "tall_dirty"
    ids = _ids(n)
    inputs = Inputs(argv=[], expectation=None, perception=None, importance_rows=None)
    paths = []
    for stream, (kind, shift) in enumerate((("expectation", 0.9), ("perception", 0.3))):
        rng = _rng(seed, stream)
        values = _likert(rng, n, k, shift)
        if dirty:
            cells, accepted, injected, crlf = _dirty(rng, values, LIKERT_CODES, False)
            data = _with_blank_lines(_csv(header, ids, cells, crlf), rng)
            values = values[accepted]
            inputs.rejected[kind] = injected
        else:
            data = _csv(header, ids, values.astype(str).tolist())
        setattr(inputs, kind, values)
        paths.append(_write(work / f"{kind}.csv", data))
    inputs.argv = _gap_argv(work, _write(work / "instrument.json", json.dumps(doc)), *paths)
    if name == "wide":
        inputs.argv += ["--weights", _write(work / "weights.json", json.dumps(
            {"means": dict(zip(IMPORTANCE_COLUMNS, (10.0, 40.0, 20.0, 20.0, 10.0)))}))]
        return inputs
    rng = _rng(seed, 2)
    alloc = _importance(rng, n)
    header = ["respondent_id", *IMPORTANCE_COLUMNS]
    if dirty:
        cells, accepted, injected, crlf = _dirty(rng, alloc, IMPORTANCE_CODES, True)
        data = _with_blank_lines(_csv(header, ids, cells, crlf), rng)
        inputs.importance_rows = int(accepted.sum())
        inputs.rejected["importance"] = injected
        inputs.argv += ["--missing-policy", "drop_row"]
    else:
        data = _csv(header, ids, alloc.astype(str).tolist())
        inputs.importance_rows = n
    inputs.argv += ["--importance", _write(work / "importance.csv", data)]
    return inputs


def make(name: str, work: Path, seed: int, n: int | None = None) -> Inputs:
    """Write the inputs of workload ``name`` under ``work``; ``n`` overrides
    the respondent count of the synthetic shapes (for the smoke test)."""
    if name == "xyz_batch":
        return case_study(work, seed)
    return synthetic(work, name, seed, FULL_N[name] if n is None else n)


def _alpha(m: np.ndarray) -> float:
    m = m.astype(float)
    k = m.shape[1]
    return (k / (k - 1)) * (1.0 - m.var(axis=0, ddof=1).sum() / m.sum(axis=1).var(ddof=1))


def check_report(doc: dict, inputs: Inputs) -> list[str]:
    """Compare one parsed report JSON with the oracle; returns the mismatches."""
    problems = []
    gaps = inputs.perception.mean(axis=0) - inputs.expectation.mean(axis=0)
    got = np.array([g["gap"] for g in doc["gap_analysis"]["items"]])
    if got.shape != gaps.shape or not np.allclose(got, gaps, rtol=0, atol=1e-9):
        problems.append("per-item gaps differ from the numpy oracle by more than 1e-9")
    for kind in ("expectation", "perception"):
        want = _alpha(getattr(inputs, kind))
        alpha = doc["reliability"][kind]["alpha"]
        if abs(alpha - want) > 1e-12:
            problems.append(f"{kind} alpha {alpha!r} differs from the oracle {want!r}")
        n = doc["metadata"]["respondents"][kind]
        if n != len(getattr(inputs, kind)):
            problems.append(f"{kind}: {n} rows accepted, expected {len(getattr(inputs, kind))}")
    if inputs.importance_rows is not None:
        n = doc["metadata"]["respondents"]["importance"]
        if n != inputs.importance_rows:
            problems.append(f"importance: {n} rows accepted, expected {inputs.importance_rows}")
    if inputs.overall_weighted_sum is not None:
        overall = doc["gap_analysis"]["overall"]["weighted_sum"]
        if abs(overall - inputs.overall_weighted_sum) > 1e-6:
            problems.append(f"overall weighted sum {overall!r} is not "
                            f"{inputs.overall_weighted_sum} +/- 1e-6")
    return problems


def check_diagnostics(counts: dict[str, dict[str, int]], inputs: Inputs) -> list[str]:
    """Compare rejected-row counts per file and code with those injected."""
    if counts != inputs.rejected:
        return [f"rejected rows per code {counts} differ from those injected {inputs.rejected}"]
    return []
