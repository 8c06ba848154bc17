"""Golden digests of fixed runs.

Each case runs one forecaster over seeded data and pins the sha256 of
``steps.csv`` and of ``summary.json`` without its ``wall_clock_sec``
field, so a refactor or a speed-up of the forecasting path cannot change
a single byte of a log without this file noticing.  Each log is written
twice: from the ``RunLog`` of ``harness.run`` by ``write_run_log``, and
streamed to disk by ``egtree run``.  It also pins the
checks that ``verify_bounds`` makes of the run, so the verifier and its
comparators cannot drift either.  The inputs mix
uniform draws with exact dyadic values (0, 1/4, 1/2, 3/4, 1), so that
midpoint ties and the closed upper face x = 1 are routed on every run.
"""

import hashlib
import json

import numpy as np
import pytest

from egtree.cli import main
from egtree.harness import (RunConfig, run, verify_bounds, write_covariates, write_run_log,
                            write_series)
from egtree.losses import LossSpec

LOSSES = {
    "absolute": LossSpec("absolute"),
    "square": LossSpec("square"),
    "pinball": LossSpec("pinball", 0.35),
}
DYADIC = np.array([0.0, 0.25, 0.5, 0.75, 1.0])


def dyadic_mix(rng, shape):
    """Uniform draws, about half of them replaced by exact dyadic values."""
    values = rng.random(shape)
    snap = rng.random(shape) < 0.5
    values[snap] = DYADIC[rng.integers(0, len(DYADIC), size=int(snap.sum()))]
    return values


def digests(rundir):
    steps = hashlib.sha256((rundir / "steps.csv").read_bytes()).hexdigest()
    summary = json.loads((rundir / "summary.json").read_text())
    summary.pop("wall_clock_sec")
    return steps, hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()


# (steps.csv sha256, summary.json sha256 without wall_clock_sec)
GOLDEN = {
    "eg-absolute": (
        "e8e92c6a5d305022ab4810464fcc0c5a5eafcadf8c064a1a8b0a27a4a6545e52",
        "255030fbf2f3476b93544fc887900b8b19e97c4f1e210facb84e38f69df2cc7b"),
    "tree-d1-box-absolute": (
        "ef9d635e24ecf1d5a6515bd4d46f4fe448580e2a46019e3482ee70013bca6a30",
        "48041e278f2c2b7e277f106dc99caeb41051c19a45f17b0e5004ccd587cc2666"),
    "tree-d1-range-absolute": (
        "2c9953ece3a613f8b3bfd0d1765e0793ab63ff42417c210269d513b25a114cad",
        "224e1e579534848344ca26397f5e7abeef98d1865fc66764035c5784f85d14d9"),
    "tree-d3-box-absolute": (
        "7cb3ce0e6e0d84b35070edf33aeaeb68bd7e998eee647fc88cc3beb9fa41b625",
        "3636c8003c58cd457aa513f9eba205ac3beeedb23c7a773da9eaa160344699d5"),
    "tree-d3-range-absolute": (
        "a36598f62749eeb9dd383e2196ad9458af61597c17e90cbb0be6b21928c031d1",
        "d27d23340daa28fb14e2206a8b7373aa5f1193437ecf9f6fcdd543d13a9c3e81"),
    "meta-powers_of_two-box-absolute": (
        "dbcc329907fbe3827badee75046761e7ed297480ced8dfbe6776f80bac7f4e53",
        "23fa1d338c84663b085531917572e986d688bf4afa1ed705f687317a04d62634"),
    "meta-powers_of_two-range-absolute": (
        "d5f0a58c370e784b29c0d4e72027407bcd980e614480f19222695dcd20fe9700",
        "2cb8c67575ec09738cfdb355cf3c059f0370f69bd1be39090e65a0ef881f2662"),
    "meta-quadratic-box-absolute": (
        "c0edcb6d85bc86111aca6a8769b38309c203b0c950d78ca4a3f48c16772e6c6a",
        "620deb315a924fac17ceb5eae4141aa23bdbe0b02b303087996058a92fe1bd6d"),
    "meta-quadratic-range-absolute": (
        "876840d2c0d356f238edcc454ba85ff340943ea34307ec98606b6e500264fe6a",
        "dd7420a4aba600f410928a39ff3b8ed9b9e4074665ef6fedb8762159b0d793a9"),
    "eg-square": (
        "c07239e1aba8df5e8a0873f7de11a0be5b4b3e274269d4b3ee0a8fc2bac37295",
        "49edb3607ed2958253aadc1bd9970d5589e69d0d36a9dafecdbbbbc1a5e1fe38"),
    "tree-d1-box-square": (
        "c23f90b657953c5d6bda4e68fa92b3a3fbdb3ea69d0d8f8a60187d6b34583941",
        "b01f93093eb524cf0ea4e08c400af56440496d149f8a1e389a907fd86aa5f089"),
    "tree-d1-range-square": (
        "2b97871749f4fc966b6674fefd2bf34c4f0af748c16fb11e3d889d2360dbd6bb",
        "df515e633c176eed9faf3a11c187141e6a24bc45446662f7f8e8ee9a4aa7be33"),
    "tree-d3-box-square": (
        "3f6cda6b5e5ec126ccc3b2df40acfa56c76db3e71e0cd16e42415627500f6478",
        "aee761edb9e0c77e60a07f583c8949a096a4143ef4023fc7c9722ef80cde5aa9"),
    "tree-d3-range-square": (
        "60fc55e727636ae2eee5cd0fb64c500aec77654a7f903e5cc8ca1d964cb21cb5",
        "07f6ab3e479d3f918b9dcc821779394205fb8206a2b04b5bb50a71d77a13faeb"),
    "meta-powers_of_two-box-square": (
        "13efb8bea5e4845df536b98203d78c00a96005d901d6e4b174b300cf53fbe395",
        "f890adbc6edbef847f262a1875249f553af2e9c63962c1b5850335249be27e61"),
    "meta-powers_of_two-range-square": (
        "c3d95d24d542feb7e872ea75610b8ba24852bb1a99f313c4069c8763697a0062",
        "ea9de4e6c0444410ec24f11c54ad1b817702b643b002307c76fbef70786c4d42"),
    "meta-quadratic-box-square": (
        "584d9d63e332a5c7f598fc280ac948e4aaa1b88a416e300546488ec0d283bd5d",
        "cba9cff83d6d349acb4bb0af65f4a851beb19db368190569752c2955c492bfa1"),
    "meta-quadratic-range-square": (
        "a3a47d9dce25fbf8f76589581d0a38f4c5bbef87d2feec9431d701dc8b92f0f8",
        "2dbecf93fab5f82a4ee5b5a9265d9f8a799591167a4867e9cc59bbe94b2020f9"),
    "eg-pinball": (
        "18e07527d7ec156bb1d98840a08cf47eeb134312d0b7a2cc387a1b6ca1e292b8",
        "11f6933d39da23ef83eb2415b109a94f76e5f72a0a42642862b2366c32324a34"),
    "tree-d1-box-pinball": (
        "20a1cf52bad9be011a01acc5cb316f5c7a8e0d01c80e218ea13564916ba9db77",
        "6ed4e568f967d7eba54e07a96a2eb0e186dfda90f16ec1d6429270e9777c2f1c"),
    "tree-d1-range-pinball": (
        "f16bf75ceaba05e6316c674c015f416080938589e5e5c1fabfa2e55ac0d16197",
        "0013228eca07d3896b22c78a0236002a2f0efe92e5c650e411fe5415129b7f2f"),
    "tree-d3-box-pinball": (
        "ffc0e37712f5b2ac390a295c1ad30d79984d6da31886a97e17510a885cc3683d",
        "6952934a4b60251425fdae6586d21189fcb7ec70b79625c2d9108a9db3326eac"),
    "tree-d3-range-pinball": (
        "1f097ff317cff7d819b27b0ce05dd8a66a5379d85132f53e83d7f4c1bd325e3c",
        "a5b3bc08fa78d9d86bd6953a9f15fb891e693f44f90f191295f130c2f63e5afd"),
    "meta-powers_of_two-box-pinball": (
        "d6efc19b64f4d1ee0f9a0d34aa668e4b9deb5efb1e4873a7a7971b1b2335c8fa",
        "91a0e14024e0eb02a0224f10ed5f1beb109606b98809e92ec70bb75309c470e1"),
    "meta-powers_of_two-range-pinball": (
        "8b86beff6e1305b08a8dffdebc2f0934e53ee180a1decf5d8e4cb44ec85081f6",
        "430f6886b4fd4043f1221171a372fafb0f773d8f2cfc4ad107da40183e1d8de3"),
    "meta-quadratic-box-pinball": (
        "d0887198efd02dafb8cc1161ba2314c244808aec2eff69222286f7ceb35b7a13",
        "284ed38339fc4abe13516ea857604f3f371ea4560eb0cae42f1e356893e685d6"),
    "meta-quadratic-range-pinball": (
        "20ba39ccb17027fbd69f17ffc3100f024741a7fa7822b599fa68520be5ec0647",
        "13d59269917487809fa43698e2a2e1b6cd7c003b90f1fbcb7caaa8f016f09fb1"),
}


# sha256 of the JSON of verify_bounds(log, L), with L = 1.0 where a
# Lipschitz-comparator check exists (tree d = 1, meta) and None elsewhere
VERIFY_GOLDEN = {
    "eg-absolute": "7ac100c7f660fb4b6122353577eff9c7acc6c1af9b0f1f443b9b5b91fd69c0b7",
    "tree-d1-box-absolute": "6c5cc7cfb5f9488c5ab4eecc50e46739a10a39baf69f30375af475b8345ce8f1",
    "tree-d1-range-absolute": "15f4403e63998ffa112bb832222b9175a2cedb2b182cdecfda6ef69aa573bcfc",
    "tree-d3-box-absolute": "a11e5a5dfbc96833a4b554b8b17c2aff97795b48772b4669663e0df8c58a959e",
    "tree-d3-range-absolute": "011069d7ea12d87cd30ee71bbaabf0ec81a3b20473176a4809de61d24c50b751",
    "meta-powers_of_two-box-absolute": "377aea9030104a5659d1b9b50499ab126a4ae224430211753741c77026625d8b",
    "meta-powers_of_two-range-absolute": "6716cc06ae2a303cf743273b5b455ed9f85b3592a6037a2d5805c2fb087cc12a",
    "meta-quadratic-box-absolute": "7f89af7d09c793de736cbf39cd58a399264e6f7c80aa43b44c1be61bc37c7854",
    "meta-quadratic-range-absolute": "55de54b2e11347fe5b608c2e1a63fdb395a9c7445a719a3a51e851e46a338485",
    "eg-square": "95e0a136cfc685ee0bd190f6c4f7ac0fb7f134daea63f7fa1cb4ec6051a5ecb5",
    "tree-d1-box-square": "d43582bb1d39f56bbe94d5cbf766a4cd07dce0cb2a2333016b9aae460c6b6e6f",
    "tree-d1-range-square": "8918427a70d6e19eec09843b63521add5086bf593337f7e49a1546a5a9f7bcbd",
    "tree-d3-box-square": "117adbbc85368d462bbab54b6cad8beffa7c420778492533c22a0e691f278fe2",
    "tree-d3-range-square": "daff4e09702a1e3cbe88ee946ac472db91873fbdf3a46854ca9b8bbafaf631a5",
    "meta-powers_of_two-box-square": "d7fb98e513a819bbd2d55869a5b5d39a8422996fd91d44eb0f21e56daa7b7b98",
    "meta-powers_of_two-range-square": "2b31d7cdb137ff81be21db04cced1dc2c7d018c72179f793fe90a3bc009f570a",
    "meta-quadratic-box-square": "c20ea97657f4ce1750c551c41aa0713f76ab339cd9d2a66b8476c2c354c3479e",
    "meta-quadratic-range-square": "fcf4b6011aca68380ecf6b78e8af9e3479064fae4ed089d8dfe8da86caf76693",
    "eg-pinball": "4f1122efcd61cc32c81027df1bc062145631f061867ad3134308764c86532feb",
    "tree-d1-box-pinball": "bce93b23f3ffa05050e2d868d44f151b6fb55179289b246e925cd972d30f9830",
    "tree-d1-range-pinball": "61f092e1d35cc604693d80c090dead8a8c31b6cdf48afc2dbfd6f3f8f5d415ba",
    "tree-d3-box-pinball": "7490c834845b409c5a53f627599f8a8f160cbad97c44d41a61df38c77e4555fd",
    "tree-d3-range-pinball": "c96a722c35049b15fdd09f8f4e3d005f161e9b5dce52b7a2b74d40b93bb9a158",
    "meta-powers_of_two-box-pinball": "2b6a289130d1efa48f1e96f5fc7a2481d6294336aebfdcd228ecafa3dd172f44",
    "meta-powers_of_two-range-pinball": "e9819b6ed42b38cf811600218d90518b56af5be35ad05414c40721c1a45e7fdc",
    "meta-quadratic-box-pinball": "929d2c21244cddd36ba6747828f42e9328c97beb840870fbc58613ebecfcf3af",
    "meta-quadratic-range-pinball": "81e8468555e51343b3202586ddf3610fbd46217b463869358753decf77a324cd",
}


def cases():
    for loss in LOSSES:
        yield f"eg-{loss}"
        for d in (1, 3):
            for mode in ("box", "range"):
                yield f"tree-d{d}-{mode}-{loss}"
        for schedule in ("powers_of_two", "quadratic"):
            for mode in ("box", "range"):
                yield f"meta-{schedule}-{mode}-{loss}"


def case(name):
    """The config and the input ``(ys, xs)`` of a golden case."""
    parts = name.split("-")
    forecaster, loss = parts[0], LOSSES[parts[-1]]
    if forecaster == "eg":
        ys = dyadic_mix(np.random.default_rng(11), 300)
        return RunConfig("eg", loss, seed=11), ys, None
    if forecaster == "tree":
        d, effective_range = int(parts[1][1:]), parts[2] == "range"
        rng = np.random.default_rng(20 + d)
        xs = dyadic_mix(rng, (400, d))
        ys = dyadic_mix(rng, 400)
        return (RunConfig("tree", loss, d=d, effective_range=effective_range, seed=20 + d),
                ys, xs)
    ys = dyadic_mix(np.random.default_rng(31), 400)
    return (RunConfig("meta", loss, schedule=parts[1], effective_range=parts[2] == "range",
                      seed=31), ys, None)


@pytest.mark.parametrize("name", list(cases()))
def test_golden_digest(name, tmp_path):
    write_run_log(run(*case(name)), tmp_path)
    assert digests(tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("name", list(cases()))
def test_golden_digest_of_the_streamed_run(name, tmp_path, capsys):
    # `egtree run` streams the log to disk; its files must match the pins too
    config, ys, xs = case(name)
    config_path, data = tmp_path / "config.json", tmp_path / "input.csv"
    config_path.write_text(json.dumps(config.to_dict()))
    if xs is None:
        write_series(data, ys)
    else:
        write_covariates(data, xs, ys)
    rundir = tmp_path / "run"
    assert main(["run", "--config", str(config_path), "--input", str(data),
                 "--out", str(rundir)]) == 0
    assert digests(rundir) == GOLDEN[name]


@pytest.mark.parametrize("name", list(cases()))
def test_config_round_trips_through_json(name):
    config = case(name)[0]
    assert RunConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config


@pytest.mark.parametrize("name", list(cases()))
def test_verify_bounds_digest(name):
    config, ys, xs = case(name)
    L = 1.0 if config.forecaster == "meta" or (config.forecaster, config.d) == ("tree", 1) \
        else None
    checks = [c.to_dict() for c in verify_bounds(run(config, ys, xs), L)]
    digest = hashlib.sha256(json.dumps(checks, sort_keys=True).encode()).hexdigest()
    assert digest == VERIFY_GOLDEN[name]
