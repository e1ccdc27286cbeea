#!/usr/bin/env python3
"""Run the full analysis pipeline on every shipped algebra fixture.

Writes one JSON report per fixture under out/ and prints a short summary,
including the push-forward homomorphism checks for the shipped point maps
against the five-dimensional extracted algebra's realization fields.
"""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from megalie.algebra import algebra_from_dict
from megalie.analysis import analyze, canonical_json
from megalie.vectorfield import (
    fields_from_dict,
    pointmap_from_dict,
    verify_homomorphism,
)

FIXTURES = ROOT / "fixtures"
OUT = ROOT / "out"


def main():
    OUT.mkdir(exist_ok=True)
    for path in sorted(FIXTURES.glob("*.json")):
        if path.name == "wave_eq_family.json":
            continue
        g = algebra_from_dict(json.loads(path.read_text(encoding="utf-8")))
        report = analyze(g)
        target = OUT / f"{path.stem}_analysis.json"
        target.write_text(canonical_json(report), encoding="utf-8")
        aut = report.get("automorphisms", {})
        residuals = len(aut.get("residual_equations", []))
        free = len(aut.get("free_parameters", []))
        members = len(report.get("lattice", {}).get("members", []))
        print(
            f"{path.name}: {members} lattice members, "
            f"{free} free parameters, {residuals} residual equations -> {target.relative_to(ROOT)}"
        )

    _, named = fields_from_dict(
        json.loads((FIXTURES / "wave_eq_family.json").read_text(encoding="utf-8"))
    )
    table = dict(named)
    five = [(n, table[n]) for n in ("G1", "F1", "F2", "Pt", "Dt")]
    for map_path in sorted((FIXTURES / "maps").glob("*.json")):
        pm = pointmap_from_dict(json.loads(map_path.read_text(encoding="utf-8")))
        outcome = verify_homomorphism(pm, five)
        status = "ok" if outcome["ok"] else "FAILED"
        print(f"push-forward check {map_path.name}: {outcome['pairs']} pairs {status}")


if __name__ == "__main__":
    main()
