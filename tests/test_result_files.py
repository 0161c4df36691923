"""Exact bytes of every result file written from fixed arrays.

The result-file format: an optional ``# `` line holding the header dict as
``json.dumps(header, sort_keys=True)``, then ``\\n``-terminated CSV whose
float cells are ``repr(float(v))``.  Each report is built by hand, with no
simulation, so these tests pin the format and each report's header rule.
"""

import numpy as np

from evometric.dataspace import DataSpace, VarSpec
from evometric.engine import EmpiricalEvolutionSequence, write_json
from evometric.metric import MetricReport
from evometric.robustness import RobustnessReport
from evometric.stats import ErrorReport

TINY = 5e-324  # the least subnormal


def _text(report, path, **kw):
    report.to_csv(path, **kw)
    return path.read_bytes().decode("utf-8")


def _sequence():
    space = DataSpace([VarSpec("x", -1.0, 1.0), VarSpec("y", 0.0, 2.0)])
    states = np.array([
        [[-0.0, 0.5], [TINY, 2.0]],
        [[-0.0, 1.5], [TINY, 0.0]],
    ])
    return EmpiricalEvolutionSequence(space, states, (3,))


class TestEvolutionSequence:
    def test_samples_with_meta(self, tmp_path):
        text = _text(_sequence(), tmp_path / "s.csv", meta={"seed": 3, "a": [1, 2]})
        assert text == (
            '# {"a": [1, 2], "seed": 3}\n'
            "run,step,x,y\n"
            "0,0,-0.0,0.5\n"
            "0,1,5e-324,2.0\n"
            "1,0,-0.0,1.5\n"
            "1,1,5e-324,0.0\n"
        )

    def test_samples_without_meta(self, tmp_path):
        text = _text(_sequence(), tmp_path / "s.csv")
        assert text.startswith("run,step,x,y\n0,0,-0.0,0.5\n")

    def test_summary(self, tmp_path):
        path = tmp_path / "m.csv"
        _sequence().summary_to_csv(path, {"steps": 1})
        assert path.read_text() == (
            '# {"steps": 1}\n'
            "step,variable,mean,std\n"
            "0,x,0.0,0.0\n"  # the mean of two -0.0 sums from +0.0
            "0,y,1.0,0.7071067811865476\n"
            "1,x,5e-324,0.0\n"
            "1,y,1.0,1.4142135623730951\n"
        )


def _metric(params):
    return MetricReport(obs_times=(0, 5), pointwise=(-0.0, TINY),
                        discounted=(0.0, 0.25), value=0.25, argmax=5, params=params)


class TestMetricReport:
    def test_no_params_and_no_meta_write_no_header(self, tmp_path):
        assert _text(_metric({}), tmp_path / "d.csv") == (
            "tau,w,discounted_w\n"
            "0,-0.0,0.0\n"
            "5,5e-324,0.25\n"
        )

    def test_meta_alone(self, tmp_path):
        text = _text(_metric({}), tmp_path / "d.csv", meta={"seed": 1})
        assert text.startswith('# {"seed": 1}\ntau,w,discounted_w\n')

    def test_meta_overrides_params(self, tmp_path):
        text = _text(_metric({"N": 4, "seed": 0}), tmp_path / "d.csv", meta={"seed": 1})
        assert text.startswith('# {"N": 4, "seed": 1}\ntau,w,discounted_w\n')


class TestRobustnessReport:
    def test_spec_echo_then_meta(self, tmp_path):
        rep = RobustnessReport(spec_echo={"M": 2, "mode": "spec"}, obs_times=(0, 1, 2),
                               accepted=2, rejected=0, attempts=2, xi=(0.5, -0.0, TINY))
        text = _text(rep, tmp_path / "r.csv", meta={"mode": "adaptability"})
        assert text == (
            '# {"M": 2, "mode": "adaptability"}\n'
            "tau_tilde,xi\n"
            "0,0.5\n"
            "1,-0.0\n"
            "2,5e-324\n"
        )


class TestErrorReport:
    def test_reference_then_meta_and_empty_nan_z(self, tmp_path):
        rep = ErrorReport(
            variables=("x", "y"), steps=(0, 1),
            mean=np.array([[-0.0, 1.0], [2.0, TINY]]),
            std=np.array([[0.0, 0.5], [0.0, 1.0]]),
            stderr=np.array([[0.0, 0.25], [0.0, 0.5]]),
            z=np.array([[np.nan, -0.0], [np.nan, 1.5]]),
            reference_tag="N=10 baseline",
        )
        assert _text(rep, tmp_path / "z.csv") == (
            '# {"reference": "N=10 baseline"}\n'
            "variable,step,mean,std,stderr,z\n"
            "x,0,-0.0,0.0,0.0,\n"
            "x,1,1.0,0.5,0.25,-0.0\n"
            "y,0,2.0,0.0,0.0,\n"
            "y,1,5e-324,1.0,0.5,1.5\n"
        )
        text = _text(rep, tmp_path / "z.csv", meta={"reference": "meta", "seed": 2})
        assert text.startswith('# {"reference": "meta", "seed": 2}\n')


def test_json_sorts_keys_and_ends_with_a_newline(tmp_path):
    path = tmp_path / "r.json"
    write_json(path, {"report": {"xi": [-0.0, TINY]}, "meta": {"seed": 1, "N": 2}})
    assert path.read_bytes() == (
        b'{"meta": {"N": 2, "seed": 1}, "report": {"xi": [-0.0, 5e-324]}}\n'
    )
