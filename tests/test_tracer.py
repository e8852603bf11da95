"""bench/tracer.py wraps library names by their text; a rename must fail here,
not only in a traced benchmark run."""

import importlib.util
import io
from contextlib import redirect_stdout
from pathlib import Path

import qalcove.cli  # noqa: F401  (loads every layer the tracer wraps)
from qalcove import expansions, verify
from qalcove.qbg import QBG

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_tracer_installs_and_restores():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    try:
        tracer.install()
        qbg = QBG(2)
        assert verify.verify_first_half(qbg, (2, -1), 2).ok
        verified = tracer.summary()
        # a display builder still makes rationals; the verified path makes none
        expansions.ic_rhs_first(qbg, ((2, -1), (0, 0)), 2)
        with redirect_stdout(io.StringIO()):
            assert qalcove.cli.main(["expand", "--rank", "2", "--k", "1"]) == 0
        expanded = tracer.summary()
    finally:
        assert tracer.uninstall()
    calls = tracer.summary()
    assert calls["verify_first_half"]["calls"] == 1
    assert verified["RationalCoeff.__init__"]["calls"] == 0
    assert calls["RationalCoeff.__init__"]["calls"] > 0
    # the verified path reads the Chevalley heads inside the traced
    # expand_to_base; expand --k still reaches the traced chevalley_expand
    assert verified["expand_to_base"]["calls"] >= 1
    assert verified["chevalley_expand"]["calls"] == 0
    assert expanded["chevalley_expand"]["calls"] == 1
    assert tracer.counts["chevalley_expand.misses"] == 1
    assert expanded["expand_to_base"]["calls"] == verified["expand_to_base"]["calls"] + 1
