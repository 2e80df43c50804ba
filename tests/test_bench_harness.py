"""The traced benchmark run (``perfbench/run.py --trace 1``) patches program
names listed in ``perfbench/spans.py``; renaming one in ``src`` fails here."""
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_name_the_tracer_patches_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for owner, attr, _ in spans.TRACED + spans.COUNTED:
        assert attr in vars(owner), f"{owner.__name__}.{attr}"
    for owner in spans.PLAN_CALLERS:
        assert "oracle_plan" in vars(owner), owner.__name__

    before = {(owner, attr): vars(owner)[attr] for owner, attr, _ in spans.TRACED}
    with spans.Tracer("guard").installed():
        pass
    assert {key: vars(key[0])[key[1]] for key in before} == before
