"""The table of surviving mutants, tests/mutants.txt, against the source."""

import importlib.util
from pathlib import Path

import convexcover

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"


def test_the_mutant_table_names_live_comparisons():
    # every row is a mutant that tools/mutants.py makes of its verdict's
    # source as it stands, and says why no test kills it; no pytest run
    spec = importlib.util.spec_from_file_location("mutants", _TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    src = Path(convexcover.__file__).parent
    made = {(name, comparison, mutant)
            for name, (module, _) in tool.VERDICTS.items()
            for comparison, mutant, _ in tool.mutants(
                (src / f"{module}.py").read_bytes(), name)}
    lines = Path(__file__).with_name("mutants.txt").read_text().splitlines()
    rows = [line.split(" | ") for line in lines
            if line and not line.startswith("#")]
    assert rows and len({tuple(row[:3]) for row in rows}) == len(rows)
    for row in rows:
        assert len(row) == 4 and row[3].strip(), row
        assert tuple(row[:3]) in made, row
