"""Regenerate refs.json, the stored reference the checks compare with.

    python3 perfbench/regen_refs.py

Two references are stored, both computed here from scratch by
:mod:`oracle`, without asmgraph, from ASMs enumerated by their entries:

- the edge-type census of the ASM graph on 6x6 ASMs: every rectangle
  whose corner sums can be lowered by one gives an edge, typed by the
  target's four corner entries;
- the fingerprint of the set of all 7x7 ASMs (see
  :func:`oracle.set_fingerprint`).
"""

import json
from pathlib import Path

import oracle


def main() -> None:
    census = oracle.edge_type_census(6)
    refs = {
        "a6_edge_type_census": {str(t): c for t, c in census.items()},
        "a6_edges": sum(census.values()),
        "a7_fingerprint": oracle.set_fingerprint(oracle.iter_asms(7)),
    }
    path = Path(__file__).with_name("refs.json")
    path.write_text(json.dumps(refs, indent=2) + "\n", encoding="utf-8")
    print(f"{path}: {refs['a6_edges']} edges, types {sorted(census)}; "
          f"A7 fingerprint {refs['a7_fingerprint']:#018x}")


if __name__ == "__main__":
    main()
