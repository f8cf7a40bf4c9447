import os
import subprocess
import sys

import numpy as np
import pytest

from ucrbm import _kernels
from ucrbm.hamiltonians import build_afh, connected_structure
from ucrbm.rbm import random_init
from ucrbm.spins import all_spin_configs

needs_numba = pytest.mark.skipif(not _kernels.HAVE_NUMBA, reason="numba unavailable")


class TestLogcosh:
    def test_matches_naive_on_moderate_arguments(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=50) + 1j * rng.normal(size=50)
        np.testing.assert_allclose(
            _kernels.logcosh(x), np.log(np.cosh(x)), atol=1e-12
        )

    def test_no_overflow_for_large_real_parts(self):
        x = np.array([1000.0 + 0.3j, -2000.0 + 1.0j])
        out = _kernels.logcosh(x)
        assert np.all(np.isfinite(out.real))
        assert out[0].real == pytest.approx(1000.0 - np.log(2.0))


@needs_numba
class TestLaneEquivalence:
    def test_logpsi_batch(self):
        for n, m in ((3, 3), (4, 0), (2, 5)):
            p = random_init(n, m, 0.4, n + m, False)
            zmat = all_spin_configs(n).astype(np.float64)
            a = _kernels.logpsi_batch_numba(zmat, p.b, p.m, p.w)
            b = _kernels.logpsi_batch_numpy(zmat, p.b, p.m, p.w)
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_local_energy_batch(self):
        h = build_afh(4)
        struct = connected_structure(h)
        p = random_init(4, 4, 0.4, 9, True)
        zmat = all_spin_configs(4).astype(np.float64)
        args = (zmat, p.b, p.m, p.w, struct.flips, struct.word_pref,
                struct.word_mask, struct.group_ptr)
        np.testing.assert_allclose(
            _kernels.local_energy_batch_numba(*args),
            _kernels.local_energy_batch_numpy(*args),
            atol=1e-12,
        )


class TestBackendSelection:
    def test_backend_is_exported(self):
        assert _kernels.BACKEND in ("numba", "numpy")

    def test_env_flag_forces_numpy_lane(self):
        code = "from ucrbm import _kernels; print(_kernels.BACKEND)"
        env = dict(os.environ, UCRBM_NO_NUMBA="1")
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert out.stdout.strip() == "numpy"

    def test_public_names_bound_to_selected_lane(self):
        if _kernels.USE_NUMBA:
            assert _kernels.logpsi_batch is _kernels.logpsi_batch_numba
        else:
            assert _kernels.logpsi_batch is _kernels.logpsi_batch_numpy
