"""Shared fixtures and helpers for the SafeFlow test suite."""

import sys
from pathlib import Path

import pytest

# allow running the tests without installation; the reference engines
# of the differential tests import as ``oracles`` (tests/oracles)
TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
for path in (SRC, TESTS):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from repro import AnalysisConfig, SafeFlow  # noqa: E402
from repro.frontend import load_source  # noqa: E402


FIGURE2_SOURCE = r'''
typedef struct { double control; double feedback; int mode; } SHMData;

SHMData *noncoreCtrl;
SHMData *feedback;

int checkSafety(SHMData *f, SHMData *nc)
/***SafeFlow Annotation
    assume(core(nc, 0, sizeof(SHMData))) /***/
{
    if (nc->control > 5.0 || nc->control < -5.0)
        return 0;
    if (f->feedback > 100.0)
        return 0;
    return 1;
}

double decision(SHMData *f, double safe, SHMData *nc)
/***SafeFlow Annotation
    assume(core(nc, 0, sizeof(SHMData))) /***/
{
    if (checkSafety(f, nc))
        return nc->control;
    else
        return safe;
}

void initComm(void)
/***SafeFlow Annotation shminit /***/
{
    void *shmStart;
    int shmid;
    shmid = shmget(42, 2 * sizeof(SHMData), 0666);
    shmStart = shmat(shmid, 0, 0);
    feedback = (SHMData *) shmStart;
    noncoreCtrl = feedback + 1;
    /***SafeFlow Annotation
       assume(shmvar(feedback, sizeof(SHMData)));
       assume(shmvar(noncoreCtrl, sizeof(SHMData)));
       assume(noncore(noncoreCtrl));
       assume(noncore(feedback)); /***/
}

void sendControl(double v);
void getFeedback(SHMData *f);
void computeSafety(SHMData *f, double *out);

int main(void)
{
    double output;
    double safeControl;
    int i;
    initComm();
    for (i = 0; i < 100; i++) {
        getFeedback(feedback);
        computeSafety(feedback, &safeControl);
        output = decision(feedback, safeControl, noncoreCtrl);
        /***SafeFlow Annotation assert(safe(output)); /***/
        sendControl(output);
    }
    return 0;
}
'''


def analyze(source: str, config: AnalysisConfig = None, name: str = "test"):
    """Run the full SafeFlow pipeline on a C source string."""
    return SafeFlow(config).analyze_source(source, filename=f"{name}.c",
                                           name=name)


def front(source: str, filename: str = "test.c"):
    """Run only the front end (preprocess/parse/lower/attach)."""
    return load_source(source, filename=filename)


@pytest.fixture
def figure2_source() -> str:
    return FIGURE2_SOURCE


@pytest.fixture
def figure2_program():
    return front(FIGURE2_SOURCE, "figure2.c")


@pytest.fixture
def figure2_report():
    return analyze(FIGURE2_SOURCE, name="figure2")
