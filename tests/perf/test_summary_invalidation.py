"""Exact summary invalidation: one edit busts exactly the edited
function and its transitive callers, nothing else.

Drives the engine directly over a reopened segment store (the store of
the incremental session), so ``ValueFlowAnalysis.summary_events`` (the
ordered (function, kind, hit|miss) trace) is observable.
"""

from repro.core.config import AnalysisConfig
from repro.frontend import load_source
from repro.incremental.segments import SegmentStore
from repro.shm.propagation import ShmAnalysis
from repro.valueflow.engine import ValueFlowAnalysis


PROGRAM = r"""
typedef struct { double v; int flag; } R;
R *nc;
void emit(double v);
void initShm(void)
/***SafeFlow Annotation shminit /***/
{
    nc = (R *) shmat(shmget(7, sizeof(R), 0666), 0, 0);
    /***SafeFlow Annotation
        assume(shmvar(nc, sizeof(R)));
        assume(noncore(nc)) /***/
}

double leaf(double a) { return a * 2.0; }
double helper(double a) { return leaf(a) + 1.0; }
double other(double a) { return a - 3.0; }

int main(void)
{
    double x;
    double y;
    double z;
    initShm();
    x = nc->v;
    y = helper(x);
    z = other(x);
    /***SafeFlow Annotation assert(safe(y)); /***/
    emit(y + z);
    return 0;
}
"""

EDITED = PROGRAM.replace("return a * 2.0;", "return a * 2.5;")


def _run(source: str, store_path: str) -> ValueFlowAnalysis:
    config = AnalysisConfig(summary_mode=True)
    program = load_source(source, filename="prog.c")
    shm = ShmAnalysis(program, config).run()
    store = SegmentStore(store_path)
    vf = ValueFlowAnalysis(program, shm, config, summary_store=store).run()
    assert not vf.replay_validation_failed
    return vf


def _missed(vf: ValueFlowAnalysis):
    return {func for func, _, outcome in vf.summary_events
            if outcome == "miss"}


def _hit(vf: ValueFlowAnalysis):
    return {func for func, _, outcome in vf.summary_events
            if outcome == "hit"}


def test_warm_run_replays_everything(tmp_path):
    store_path = str(tmp_path / "segments")
    cold = _run(PROGRAM, store_path)
    assert _hit(cold) == set()
    assert {"main", "helper", "leaf", "other"} <= _missed(cold)

    warm = _run(PROGRAM, store_path)
    assert _missed(warm) == set()
    assert _hit(warm) == _missed(cold)


def test_one_line_edit_busts_exactly_the_affected_closure(tmp_path):
    """Editing ``leaf`` must re-analyze leaf + its transitive callers
    (helper, main) and *only* those; ``other`` keeps replaying."""
    store_path = str(tmp_path / "segments")
    _run(PROGRAM, store_path)

    edited = _run(EDITED, store_path)
    assert _missed(edited) == {"leaf", "helper", "main"}
    assert "other" in _hit(edited)

    # and the edited entries were persisted: a repeat run is all-hit
    warm = _run(EDITED, store_path)
    assert _missed(warm) == set()


def test_reports_identical_across_cold_and_warm(tmp_path):
    store_path = str(tmp_path / "segments")
    cold = _run(PROGRAM, store_path)
    warm = _run(PROGRAM, store_path)
    assert warm.warnings == cold.warnings
    assert {k: v for k, v in warm._failures.items()} \
        == {k: v for k, v in cold._failures.items()}
