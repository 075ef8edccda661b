"""Self-test of the benchmark harness: its oracles and its span arithmetic.

    python3 perfbench/selftest.py

Needs numpy but not the toepcond sources.
"""

import json
import unittest

import checks
import tracing


def _call(rc=0, stdout="", stderr=""):
    return {"rc": rc, "stdout": stdout, "stderr": stderr}


def _failed(ops):
    return [op for op, cause in ops if cause]


class VerifyCheck(unittest.TestCase):
    grid = checks.verify_grid(2, 0.25, 0.5, 0.25)

    def _csv(self, doctor=None):
        rows = [checks.VERIFY_HEADER]
        for n, r in self.grid:
            scaled = "0" if (n, r) == doctor else "1"
            rows.append(f"{n},{r!r},1,{r ** -n!r},{scaled},0.5,1,true")
        return "\n".join(rows) + "\n"

    def test_clean_report_passes(self):
        ops, problems = checks.check_verify(_call(0), self._csv(), self.grid)
        self.assertEqual((len(ops), _failed(ops), problems), (4, [], []))

    def test_doctored_row_fails(self):
        # the program still says pass=true; the closed form catches it
        ops, problems = checks.check_verify(_call(1), self._csv(doctor=(2, 0.5)), self.grid)
        self.assertEqual(_failed(ops), ["n=2 r=0.5"])
        self.assertIn("scaled=0", dict(ops)["n=2 r=0.5"])
        self.assertEqual(problems, [])

    def test_missing_report_is_a_problem(self):
        ops, problems = checks.check_verify(_call(1, stderr="error: boom"), None, self.grid)
        self.assertEqual(len(_failed(ops)), 4)
        self.assertTrue(problems)


class SearchCheck(unittest.TestCase):
    def _report(self, coeffs, gap=0.5, r=0.5, seed=7):
        result = {"n": len(coeffs), "r": r, "seed": seed, "kronecker_gap": gap,
                  "best_coeffs": [[c.real, c.imag] for c in coeffs]}
        return json.dumps({"result": result})

    def _check(self, text, n=3):
        return checks.check_search(_call(0), text, n, 0.5, 7)

    def test_feasible_symbol_passes(self):
        ops, problems = self._check(self._report([0.5, 0.25j, 0.0]))
        self.assertEqual((_failed(ops), problems), ([], []))

    def test_infeasible_symbols_fail(self):
        r = 0.5
        blaschke = [r, -(1 - r * r), -(1 - r * r) * r]  # b_r(M_3): norm exactly 1
        too_big = [c * (1 + 1e-7) for c in blaschke]
        for coeffs, gap, reason in [
            (too_big, 0.5, "||f(M_n)||"),
            ([0.4, 0.0, 0.0], 0.5, "|f(0)|"),
            ([0.5, 0.0, 0.0], -6.2e-12, "kronecker_gap"),
        ]:
            ops, _ = self._check(self._report([complex(c) for c in coeffs], gap=gap))
            self.assertEqual(len(_failed(ops)), 1, reason)
            self.assertIn(reason, ops[0][1])

    def test_wrong_seed_is_a_problem(self):
        _, problems = checks.check_search(_call(0), self._report([0.5, 0, 0], seed=8), 3, 0.5, 7)
        self.assertTrue(problems)


class ModelCheck(unittest.TestCase):
    good = ("norm = 1\ninverse norm = 16 (bound 1/r^n = 16, relative gap 1e-15)\n"
            "defect rank = 1\n")

    def test_good_report_passes(self):
        ops, problems = checks.check_model(_call(0, self.good), 4, 0.5)
        self.assertEqual((_failed(ops), problems), ([], []))

    def test_nonzero_exit_fails_with_cause(self):
        call = _call(1, "", "error: expected norm 1, got 0.999800010009\n")
        ops, _ = checks.check_model(call, 2, 0.9999)
        self.assertEqual(ops, [("model n=2 r=0.9999", "exit 1: error: expected norm 1, got 0.999800010009")])

    def test_wrong_norm_fails(self):
        ops, _ = checks.check_model(_call(0, self.good.replace("norm = 1\n", "norm = 0.9998\n")), 2, 0.5)
        self.assertEqual(len(_failed(ops)), 1)


class SpanArithmetic(unittest.TestCase):
    def test_layer_self_time(self):
        # cli.main [0,11] > cli.cmd_verify [1,9] > bounds.grid_sweep [2,8]
        #   > bounds.theorem_check [3,7] > linalg.spectral_norm [4,6],
        # then bounds.kronecker_bound [9.5,10.5] directly under cli.main.
        # Self time subtracts only spans of other layers.
        ticks = iter([0, 1, 2, 3, 4, 6, 7, 8, 9, 9.5, 10.5, 11])
        tracer = tracing.Tracer(clock=lambda: next(ticks))
        for name in ("cli.main", "cli.cmd_verify", "bounds.grid_sweep",
                     "bounds.theorem_check", "linalg.spectral_norm"):
            tracer.enter(name)
        for _ in range(4):
            tracer.exit()
        tracer.enter("bounds.kronecker_bound")
        tracer.exit()
        tracer.exit()
        expect = {
            "linalg.spectral_norm": [1, 2, 2],
            "bounds.theorem_check": [1, 4, 2],
            "bounds.grid_sweep": [1, 6, 4],
            "cli.cmd_verify": [1, 8, 2],
            "bounds.kronecker_bound": [1, 1, 1],
            "cli.main": [1, 11, 4],
        }
        self.assertEqual(tracer.stats, expect)

    def test_layer_values(self):
        trace = {
            "stats": {"model.model_operator": [3, 1.5, 1.0], "bounds._objective": [10, 1.0, 0.5],
                      "core.reciprocal_series": [4, 0.1, 0.1]},
            "counts": {"model.quadrature_rounds": 6, "linalg.power_steps": 99},
            "sizes": [["linalg.spectral_norm", 3, [1e-6, 3e-6, 2e-6]]],
        }
        value = lambda name: tracing.layer_value(name, trace)  # noqa: E731
        self.assertEqual(value("model.model_operator.self_s"), 1.0)
        self.assertEqual(value("model.useful_round_ratio"), 0.5)
        self.assertEqual(value("bounds.search.feasible_ratio"), 0.4)
        self.assertEqual(value("linalg.power_steps"), 99)
        self.assertAlmostEqual(value("linalg.spectral_norm.n3.us_p50"), 2.0)
        self.assertEqual(value("linalg.spectral_norm.n64.us_p50"), 0.0)
        self.assertEqual(value("linalg.defect_rank.s"), 0.0)


if __name__ == "__main__":
    unittest.main()
