"""Tests for the kernel harness facade."""

import numpy as np
import pytest

from repro.kernels import KERNELS, get_kernel, kernel_names, paper_kernel_names, time_kernel


class TestRegistry:
    def test_all_four_paper_kernels_present(self):
        # Paper §V-A: "Selected were Crypt, RayTracer, MonteCarlo and Series."
        assert set(paper_kernel_names()) == {"crypt", "raytracer", "montecarlo", "series"}

    def test_extension_kernels_marked(self):
        assert "sor" in kernel_names()
        assert not KERNELS["sor"].in_paper

    def test_get_kernel(self):
        assert get_kernel("crypt").name == "crypt"

    def test_get_unknown_kernel(self):
        with pytest.raises(KeyError):
            get_kernel("linpack")

    def test_size_classes(self):
        for spec in KERNELS.values():
            assert set(spec.sizes) == {"A", "B", "C"}
            assert spec.sizes["A"] < spec.sizes["B"] < spec.sizes["C"]


@pytest.mark.parametrize("name", sorted(KERNELS))
class TestEveryKernel:
    def test_validates_at_size_a(self, name):
        spec = get_kernel(name)
        assert spec.validate(spec.sizes["A"])

    def test_sequential_runs(self, name):
        spec = get_kernel(name)
        assert spec.run_sequential(spec.sizes["A"]) is not None

    def test_chunks_run_and_cover(self, name):
        spec = get_kernel(name)
        size = spec.sizes["A"]
        parts = [spec.run_chunk(size, i, 4) for i in range(4)]
        assert all(p is not None for p in parts)

    def test_chunk_equivalence_where_stitchable(self, name):
        """For array-output kernels, chunks must stitch to the reference
        (sequential result, or the kernel's declared phase reference); for
        reduction kernels the combine operator must agree."""
        spec = get_kernel(name)
        size = spec.sizes["A"]
        reference = (
            spec.stitch_reference(size)
            if spec.stitch_reference is not None
            else spec.run_sequential(size)
        )
        parts = [spec.run_chunk(size, i, 3) for i in range(3)]
        if isinstance(reference, np.ndarray):
            stitched = np.concatenate(parts)
            flat_ref = reference.reshape(stitched.shape)
            assert np.allclose(stitched.astype(float), flat_ref.astype(float))
        else:  # montecarlo PathResult
            acc = parts[0]
            for p in parts[1:]:
                acc = acc.combine(p)
            assert acc.mean_final_price == pytest.approx(
                reference.mean_final_price, rel=1e-9
            )


class TestTiming:
    def test_time_kernel_positive(self):
        assert time_kernel("series", "A", repeats=1) > 0.0
