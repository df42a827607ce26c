"""Self-tests of the benchmark's generators and tracer.

    python3 bench/selftest.py

Run from a source checkout; the package is imported from src/ as in run.py.
"""

from __future__ import annotations

import json
import random
import sys
import unittest
from fractions import Fraction

import generators as gen
import run
import tracing
import workloads as wl

sys.path.insert(0, str(run.SRC))
PKG = run.import_package()


class ZeroFirst(random.Random):
    """A stream whose first ``zeros`` randint calls return the smallest
    nonnegative value allowed, so the first sigma drawn is identically 0."""

    def __init__(self, zeros):
        super().__init__(0)
        self.zeros = zeros

    def randint(self, a, b):
        if self.zeros:
            self.zeros -= 1
            return max(a, 0)
        return super().randint(a, b)


class Generators(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for label in ("1.0", "7.3"):
            self.assertEqual(gen.gram_input(gen.make_rng("gram", label)),
                             gen.gram_input(gen.make_rng("gram", label)))
            for shape in gen.POOL_SHAPES:
                self.assertEqual(
                    gen.pool_document(gen.make_rng("cohomology", label), shape),
                    gen.pool_document(gen.make_rng("cohomology", label), shape),
                )
        self.assertNotEqual(gen.gram_input(gen.make_rng("gram", "1.0")),
                            gen.gram_input(gen.make_rng("gram", "1.1")))

    def test_every_document_validates(self):
        for seed in range(6):
            for shape in gen.POOL_SHAPES:
                doc = gen.pool_document(gen.make_rng("cohomology", seed), shape)
                model = PKG.models.model_from_dict(doc)  # validates d*d = 0
                self.assertTrue(model.validate())
                if shape == "nilpotent":  # d commutes with conjugation
                    for i in range(1, gen.N_HOLO + 1):
                        self.assertEqual(model.differential_of(f"z{i}").conjugate(),
                                         model.differential_of(f"zb{i}"))

    def test_nakamura_document_is_the_builtin_model(self):
        for seed in range(4):
            t = gen.nakamura_parameter(gen.make_rng("classes", seed))
            ours = PKG.models.model_from_dict(gen.nakamura_document(t))
            builtin = PKG.models.nakamura(PKG.scalars.GaussianRational(*t)).model
            self.assertEqual(PKG.models.model_to_dict(ours),
                             PKG.models.model_to_dict(builtin))

    def test_pfaffian_parts_match_the_package(self):
        workload = wl.Gram(PKG, 0)
        table = workload.model.table
        for seed in range(20):
            data = gen.gram_input(gen.make_rng("gram", seed))
            constant, linear = gen.pfaffian_parts(data.values, data.formal)
            expected = (table.constant(PKG.scalars.GaussianRational(*constant))
                        + table.variable("l") * PKG.scalars.GaussianRational(*linear))
            sigma = workload.sigma(data)
            pf = PKG.bbf.pfaffian(PKG.bbf.AntisymmetricMatrix.from_form(sigma))
            self.assertEqual(pf, expected)
            PKG.bbf.make_symplectic(workload.model, sigma)  # never degenerate

    def test_degenerate_sigma_is_redrawn(self):
        zero = (Fraction(0), Fraction(0))
        self.assertTrue(gen.is_degenerate(
            {pair: zero for pair in gen.HOLO_PAIRS if pair != (1, 2)}, (1, 2)))
        data = gen.gram_input(ZeroFirst(zeros=20))
        self.assertFalse(gen.is_degenerate(data.values, data.formal))
        self.assertTrue(any(any(v) for v in data.values.values()))


class Scaling(unittest.TestCase):
    def test_intervals_scale_with_the_kernel_speed(self):
        ref = run.REF_SECONDS
        self.assertEqual(run.scaled(2.0, ref, ref), 2.0)
        self.assertAlmostEqual(run.scaled(2.0, 2 * ref, 2 * ref), 1.0)
        self.assertAlmostEqual(run.scaled(3.0, ref, 2 * ref), 2.0)


class Tracer(unittest.TestCase):
    def test_per_layer_metrics_match_benchmark_json(self):
        with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
            declared = {m["name"] for m in json.load(handle)["per_layer"]}
        reported = {"scenarios.suite_s", "trace.ops_per_s_ratio"}
        for group in tracing.layer_metrics(tracing.Tracer()):
            reported.update(group)
        self.assertEqual(declared, reported)

    def test_self_time_subtracts_child_coverage(self):
        tracer = tracing.Tracer()
        tracer.spans[:] = [
            ("outer", 0.0, 10.0, -1, 0),
            ("inner", 1.0, 3.0, 0, 0),
            ("inner", 2.0, 4.0, 0, 0),  # overlaps the first child
            ("inner", 6.0, 7.0, 0, 0),
        ]
        table = tracer.span_table()
        self.assertEqual(table["outer"], [1, 10.0, 6.0])
        self.assertEqual(table["inner"], [3, 5.0, 5.0])

    def test_operator_aliases_are_counted(self):
        pkg = run.import_package()
        tracer = tracing.Tracer()
        tracer.install(pkg)
        tracer.enabled = True
        z = pkg.scalars.GaussianRational(1, 1)
        z * z
        2 * z  # int.__mul__ declines, so GaussianRational.__rmul__ runs
        self.assertEqual(tracer.counts["scalars.gauss_mul_calls"], 2)
        poly = pkg.models.torus(1).table.constant(3)
        2 * poly
        self.assertEqual(tracer.counts["scalars.poly_mul_calls"], 1)

    def test_counts_repeat_exactly(self):
        def traced_counts():
            pkg = run.import_package()
            tracer = tracing.Tracer()
            tracer.install(pkg)
            tracer.enabled = True
            model = pkg.models.kodaira()
            for theory in pkg.dga.THEORIES[1:]:
                model.cohomology(theory, (1, 1))
            model.cohomology(pkg.dga.DE_RHAM, 2)
            model.cohomology(pkg.dga.DE_RHAM, 2)
            return dict(tracer.counts)

        first = traced_counts()
        self.assertEqual(first, traced_counts())
        self.assertEqual(first["dga.cohomology_calls"], 5)
        self.assertEqual(first["dga.cohomology_hits"], 1)


if __name__ == "__main__":
    unittest.main()
