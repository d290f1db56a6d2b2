"""report.json bytes pinned at unit-test size, the regression oracle for refactors.

A report's bytes depend on its config, its seed, the numpy version and
the CPU's SIMD dispatch level, on any Python from 3.10: no report total
goes through the built-in sum(), which CPython 3.12 made compensated. The
goldens are checked again with that sum() emulated. Transcendental ufuncs
may change between numpy releases, so the digests bind only under the
numpy version they were recorded with; under any other the tests skip and
name both versions. numpy also picks those kernels by CPU level: the
digests were recorded with AVX-512 (X86_V4) dispatch, and with it turned
off (NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR") six of these
tests fail, on the last digit of eval_mean_rate_bps (np.log2 in
radio.rate_bps); they do not skip.
"""

import hashlib
import math

import numpy as np
import pytest

from absim import sim
from absim.sim import train, write_report_json
from helpers import mk_cfg, py312_sum

DIGESTS_NUMPY = "2.4.6"

GOLDEN = [
    ("qa", dict(seed=0), "7a263b54db75223c3704d88ad7a942538e5d1b225514badb1c405d7d7b91e0bc"),
    ("qa", dict(seed=1), "141eb73e65e613ba80a297aa687007e88ed24aa0fe55305e16821119c8c529fc"),
    ("qa", dict(seed=2), "0d8725e643d5e56b1f479a9da5cd7b034e10318cf59da5aed444b856b5396802"),
    ("kmeans", dict(seed=0), "7a071e94d1897ef50e2d3f7996fc98ebeef8f58831fbfc50e048536691feb06b"),
    ("kmeans", dict(seed=1), "07c519ba92be2910a49538ff9401727a881286b7a376f1fdabe9c1b983a927f7"),
    ("kmeans", dict(seed=2), "9c094e952cd68373c631b2420de8c233af851c9dd85686e182ebecbaad681b1d"),
    ("snrp", dict(seed=0), "4c83aed8577940b4b8bbdd05734b6f8d034519d50c5dbcaf3b0c94cd0e02011e"),
    ("snrp", dict(seed=1), "469084e8c77d7c1de51e861cc5cf30a38c9cb7c4342641e50567841cab1e0c36"),
    ("snrp", dict(seed=2), "6c3fec5bcd47d657713a84cdd59582462146adeff9d10fb29e655a1150ea4fb3"),
    ("qa", dict(seed=0, uav_start="random", n_uav=4),
     "f1c26c06ce703553546cc837f719a7911c62bcd7b352b3efea8481e2a24b6fc8"),
    ("qa", dict(seed=0, candidate_rule="uniform"),
     "b982d343d9c10792c56410c5de465cf6f8ec987c6b474c09f9dcdf298ffe5f08"),
    # 10 evaluation episodes: at 8 or more, numpy's pairwise sum differs
    # from a left-to-right one, so this pins the evaluation mean's order
    ("qa", dict(seed=0, eval_episodes=10),
     "02cc9b80613b8c973f7918731ced174f8a8f7d5353cbe2dbe2b385350c239e05"),
    # one centroid: every move is the hover and the annealer's distance
    # table has one column, so these pin that M = 1 takes the generic paths
    ("qa", dict(seed=0, n_centroids=1, n_uav=1, uav_start="spread"),
     "5cfb64d4cbadac5229c1c136803459837e17a31dc52c9bc1f9a4b4463e3fb429"),
    ("qa", dict(seed=0, n_centroids=1, n_uav=1, uav_start="random"),
     "df1c29c188b09f6bafd97c69a371c59c928ddad8393bb0e486123dd71099a805"),
    ("kmeans", dict(seed=0, n_centroids=1, n_uav=1, uav_start="spread"),
     "b7edc1ca8583527b924e6f48bfe4420ec1d9561855db3fbe0d812601d9f66c0d"),
    ("kmeans", dict(seed=0, n_centroids=1, n_uav=1, uav_start="random"),
     "ac405e8cbcb4aad6ab57022cb4e392811d9f5e93ff4cf80078d6c6449f0f57a7"),
    ("snrp", dict(seed=0, n_centroids=1, n_uav=1, uav_start="spread"),
     "4fdb723bd8d64a5cc6cd3bf8f6a8e78e76e93767ac0b2d5099a6715e0667b82d"),
    ("snrp", dict(seed=0, n_centroids=1, n_uav=1, uav_start="random"),
     "da1d66bfbb71cfa8e7949a512260696e1b724df162a97e1a0305aa413036a691"),
]


pinned_numpy = pytest.mark.skipif(
    np.__version__ != DIGESTS_NUMPY,
    reason=f"golden digests recorded under numpy {DIGESTS_NUMPY}, running numpy {np.__version__}")
each_golden = pytest.mark.parametrize(
    "method,overrides,digest", GOLDEN,
    ids=[f"{m}-" + "-".join(f"{k}={v}" for k, v in o.items()) for m, o, _ in GOLDEN])


def _report_digest(method, overrides, tmp_path) -> str:
    path = tmp_path / "report.json"
    write_report_json(path, train(mk_cfg(**overrides), method).report)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pinned_numpy
@each_golden
def test_report_bytes_match_golden(method, overrides, digest, tmp_path):
    assert _report_digest(method, overrides, tmp_path) == digest


def test_py312_sum_is_compensated():
    row = [-334.85304659498206, -70.17543859649122, -379.6333333333333]
    assert py312_sum(row) == -784.6618185248066
    assert (row[0] + row[1]) + row[2] == -784.6618185248067      # as 3.10 and 3.11 add
    assert math.copysign(1.0, py312_sum([-0.0, -0.0])) == 1.0       # 0 + -0.0 is +0.0
    total = py312_sum(v for v in (True, 2, 3))
    assert total == 6 and type(total) is int


@pinned_numpy
@each_golden
def test_report_bytes_do_not_depend_on_builtin_sum(method, overrides, digest, tmp_path,
                                                    monkeypatch):
    # sim reads `sum` from its module globals before the builtins, so this
    # runs any sum() call of sim as Python 3.12 would, even under 3.10 or 3.11
    monkeypatch.setattr(sim, "sum", py312_sum, raising=False)
    assert _report_digest(method, overrides, tmp_path) == digest
