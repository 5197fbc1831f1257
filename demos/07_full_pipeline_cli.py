"""End-to-end run of the pipeline on synthetic raw data.

Generates expectation/perception CSVs whose column means equal the XYZ
case-study aggregates exactly, runs the full pipeline on them once through
the library (`pipeline.run` + `write_report`) and once through
`satmetric gap --suppress-timestamp`, and shows that the two bundles are
byte-identical.
"""

import json
import tempfile
from pathlib import Path

from satmetric.cli import main
from satmetric.instrument import serialize_instrument
from satmetric.pipeline import Config, Inputs, run
from satmetric.report import write_report
from satmetric.qfd import serialize_hoq
from satmetric.rootcause import serialize_fishbone
from satmetric import xyz

work = Path(tempfile.mkdtemp(prefix="satmetric-demo-"))
print(f"working in {work}\n")

(work / "xyz.json").write_text(json.dumps(serialize_instrument(xyz.xyz_instrument())))
(work / "weights.json").write_text(json.dumps(
    {"means": xyz.importance_means(), "n_respondents": xyz.N_IMPORTANCE}))
(work / "hoq.json").write_text(json.dumps(serialize_hoq(xyz.load_xyz_hoq())))
(work / "fishbone.json").write_text(json.dumps(serialize_fishbone(xyz.load_xyz_fishbone())))
(work / "e_targets.json").write_text(json.dumps(xyz.expectation_means()))
(work / "p_targets.json").write_text(json.dumps(xyz.perception_means()))

for kind, targets, seed, out in (("expectation", "e_targets.json", 1, "e.csv"),
                                 ("perception", "p_targets.json", 2, "p.csv")):
    rc = main(["synth", "--instrument", str(work / "xyz.json"),
               "--targets", str(work / targets), "--n", "81", "--seed", str(seed),
               "--kind", kind, "--out", str(work / out)])
    assert rc == 0
print("synthesized e.csv and p.csv (81 respondents each, exact target means)\n")


inputs = Inputs(instrument=str(work / "xyz.json"),
                expect=str(work / "e.csv"),
                perceive=str(work / "p.csv"),
                weights=str(work / "weights.json"),
                hoq=str(work / "hoq.json"),
                fishbone=str(work / "fishbone.json"))
write_report(run(inputs, Config(), timestamp=False), work / "run1" / "xyz")
print("run 1: pipeline.run + write_report")

assert main(["gap",
             "--instrument", inputs.instrument,
             "--expect", inputs.expect,
             "--perceive", inputs.perceive,
             "--weights", inputs.weights,
             "--hoq", inputs.hoq,
             "--fishbone", inputs.fishbone,
             "--suppress-timestamp",
             "--out", str(work / "run2" / "xyz")]) == 0
print("run 2: satmetric gap")

doc = json.loads((work / "run1" / "xyz.report.json").read_text())
overall = doc["gap_analysis"]["overall"]
print(f"\npipeline overall weighted sum: {overall['weighted_sum']:.8f}")
print("warnings:", ", ".join(w["code"] for w in doc["warnings"]))

first = {p.relative_to(work / "run1"): p.read_bytes()
         for p in (work / "run1").rglob("*") if p.is_file()}
second = {p.relative_to(work / "run2"): p.read_bytes()
          for p in (work / "run2").rglob("*") if p.is_file()}
assert first == second
print(f"\nruns 1 and 2 are byte-identical across {len(first)} output files")
