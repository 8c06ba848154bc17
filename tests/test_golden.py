"""Golden digests of fixed runs.

Each case runs one forecaster over seeded data and pins the sha256 of
``steps.csv`` and of ``summary.json`` without its ``wall_clock_sec``
field, so a refactor or a speed-up of the forecasting path cannot change
a single byte of a log without this file noticing.  Each log is written
by ``harness.run`` and by ``egtree run``, and ``write_run_log`` must write
back the very bytes of the log that ``read_run_log`` reads.  It also pins
the checks that ``verify_bounds`` makes of the run's log read back, so the
verifier and its comparators cannot drift either.  The inputs mix
uniform draws with exact dyadic values (0, 1/4, 1/2, 3/4, 1), so that
midpoint ties and the closed upper face x = 1 are routed on every run.
"""

import hashlib
import json

import numpy as np
import pytest

from egtree.cli import main
from egtree.harness import (RunConfig, read_run_log, run, verify_bounds, write_covariates,
                            write_run_log, write_series)
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
        "9d061bc76e2a44bbc58208fcb0ed50f0891f3a33544662e84450930c774179f8",
        "ef73ae2ad214e47dc98f9c33171d99c9afdb7f1fc1640adc9113c6607317ad75"),
    "tree-d1-box-absolute": (
        "57140f6c3c77c1c4373392b4564640718f91824974f82742fcb233110a653296",
        "dc0e17af63c100e4b8ba40eae4b3d9ec020eb45353e3e6442b0acb27ae86e877"),
    "tree-d1-range-absolute": (
        "566ae05b253124b5eba3da7a8d057faf6ef06c27ab96f40c6dffc6883faa79f9",
        "1ca209e8857d8ca5e7f0e7adfe34f8dbd6d1f6875ed3a9424854bf1662114e11"),
    "tree-d3-box-absolute": (
        "6b5bc5a0073a9e7f7cef922c281e71cba49865a40f8aeb5bccc39a704f05a74b",
        "e813e79087e7a00c989bb0828f9d5fa5993e7402433d554b874b52bfdb040d58"),
    "tree-d3-range-absolute": (
        "98c466f7cdbd2241607f632dc35b315c130481fa288568f2aca773e1fb13c949",
        "01d10fb052754df3db0922422e75d91ab8a28030bad3910531767b2ffdc26462"),
    "meta-powers_of_two-box-absolute": (
        "57711735f33d40c644ef97e8614025d74b5d6b2a837d3944e9bdcde584a55c96",
        "b53e5786d2f5ac5c5395d11bb6b680a31c9c90db80019e69f6d8a3bc1d962ef7"),
    "meta-powers_of_two-range-absolute": (
        "10a3b43e0f56b4c9ca6eb7f2ea6e70ad79e147076ed04ade39830a3f965cd1a9",
        "d0119d1d7e9f19cb21cd29dde96f6c74aa94a6036ee9d2dfe25d61c85926a2b5"),
    "meta-quadratic-box-absolute": (
        "2a7862c569938308691c7aceeaeb5210b56e68ba0e2a3b62fe6bce5690cc888c",
        "d3538bb2e4fe5a474525564f8675421d99b2f825f313a914e6e78d943e6c45e4"),
    "meta-quadratic-range-absolute": (
        "3e8b4ce728fbde13447024c9b5bbadea1a270ab5bcd3db32764fb931ffb2e08b",
        "e1e60fed3f52b9a49f8514db586961df4bc7fff07eb8ea561f766a047091ddf3"),
    "eg-square": (
        "4ded209e7aa68eb381f73c074f2891ae2a0bcc17fb0e87fd122c4764cd7d27d5",
        "86fa644be8b5c2bcdf91dcfbeb4daaea17c14942bd7aa8668fde2bb8499d115e"),
    "tree-d1-box-square": (
        "b8f68c9148364175d1934cf279330cf34e9e8a950384ae87ee44db7a207554a7",
        "c5643a7b5e4d425ba916d8b76b0dcb2958345f823d561264b5e0e003d2248832"),
    "tree-d1-range-square": (
        "579076bac3afa9f1692cc85afdd77ebb9ee316e22db8e9433f394d2e78695727",
        "e6d3f0981c9acc4843318d8b4533f0b494c71bb6cb7d665cda5dbc4c628e298f"),
    "tree-d3-box-square": (
        "2565cd6e26d394c18f67e7301baa057cc73c119ad6d8aca8838895e49135d0f3",
        "5a3f4fefdbedb6ab375b27357788b0eb1fb6447c2022afdb8266d278dac48a32"),
    "tree-d3-range-square": (
        "4eeae2f36a65ffad5a0100d0c4d382f218b3db41edcde4bb4c8c59fcf6afaacf",
        "df0eb46991c603cefc5066ba4070ea0a0b9db43a7b4a6156b45649a1378edf7c"),
    "meta-powers_of_two-box-square": (
        "b186f506d6b43b476b036818bc15c4f09b28771c6c765e4869410a9d68bddad6",
        "e09f00551fb3a450b12748d96db2d573a85b3f42189620668f354f582aae13f8"),
    "meta-powers_of_two-range-square": (
        "6b8c1063487fdf92c132b5b7ff71137e846885e1b8ea239a5fc4a0631e0f29ac",
        "0086f173889116c402958e1c7434796e76279e5d956334be42a6b3aebade4b6a"),
    "meta-quadratic-box-square": (
        "3f0a862047cdf23900a49c02656ef107e31c8c203109e06c00cf54d491fd5f2c",
        "c58be144925fb4c97248d24f553bed968ee6fd40ba6bdecc0913bef78ecda0dc"),
    "meta-quadratic-range-square": (
        "532d339a5c1442136270b70310b95e32f3363ea0802f426db4d12b1531173db7",
        "663e09bc35fec3ead4612bb7e2b4409262f3fb881f3ac6707f4fce506f80a005"),
    "eg-pinball": (
        "939bc913cc9ca739c23c8cee2b69c50af52d5c60e91c33f19dc5827380e9846e",
        "1db24381d575f94d050e080024cf81809762f7bf207ee785ddc8a3a9e10616c1"),
    "tree-d1-box-pinball": (
        "dcca01a38da79095a0997e19b5f17cb38ee87fe3be9d0daaf17ec1f4648f7d3b",
        "2b419349f3e98395c9a6d14dff57990a29aabbcb208fe5976d2e97d190718f75"),
    "tree-d1-range-pinball": (
        "a2b3af6f0ea7552debb74250c97406407438dc56fb122b69ea95276045d94fd0",
        "21dd909f316bc85e94887873b3c937f926a7e87e74e2a2bff225d45cf45df74b"),
    "tree-d3-box-pinball": (
        "087e6edea9628127d3d0ef378dde975b66ab38d4a8337296d95c8a7541fb5af6",
        "1f872761a2fb606685b94f3cabede76d2b98eb8e0d31e9192146bf25ecb0705b"),
    "tree-d3-range-pinball": (
        "2f0f98ebaef4cb6114df7cd186557699116f5200c62f44c3fd96d3a88fc3ecdd",
        "4b043e3fcd51290fa086ac0f20eca4ccb791607909e3a5647b1bb8e4b9e4f0d4"),
    "meta-powers_of_two-box-pinball": (
        "0194c3c5a8800edeab8e5791051b9e3f4cf5cf0ca7cd44a5af197321f843a0ae",
        "76ab19f2bbeb64d5e123dbe19e09cf519f9fbd742d980d912d75af0dd434c151"),
    "meta-powers_of_two-range-pinball": (
        "bdc0b07a03a80dc9093f56e9ee2b2d27c9a0915fbd535940e7fa931b3b94c2be",
        "03b763edfe709ebedb5d1898e79e5867020bf4a3401b7685e2dd986db8ecca3b"),
    "meta-quadratic-box-pinball": (
        "332c1c6cce97795e6dd9848e7f756364665931ecd80a5f6ed946d17dc787f8be",
        "5fe22c45b78d2acae10245532e7c5668d8f5b0115a6726263661de23a80d107c"),
    "meta-quadratic-range-pinball": (
        "d8f102c9260d41b95ed05c225a5c732b19ef6e8fbd1bfc1a84916f4339ec9e10",
        "d3c6e72ea0d6e2c98cf00e01aa85927bb8b2ba7a20b07afd378c80cc57c9ac21"),
}


# sha256 of the JSON of verify_bounds(log, L), with L = 1.0 where a
# Lipschitz-comparator check exists (tree d = 1, meta) and None elsewhere
VERIFY_GOLDEN = {
    "eg-absolute": "9d2133209c7658e5941c68dc69d1804bbea9e82af83406be466b3505b1209bcb",
    "tree-d1-box-absolute": "e073fbc1414fb2c34789cf4a1cd63b70ca0243f9d8f942d22e4511c1abc9089a",
    "tree-d1-range-absolute": "80cf487fefd01c71e972de10e3f392dba913a5d9feb49509eb7b17c20f3cfb2f",
    "tree-d3-box-absolute": "d35278a1f2024ae9f9fad316cbdd07f7da196800496083827fa1aba1ce59b64f",
    "tree-d3-range-absolute": "4a2a3fb9c36665f31196e6568416f050461631250789e8404b176c8b3c4e012c",
    "meta-powers_of_two-box-absolute": "b97f4cceccf5540231e5ea8b9b91ce3c4b9ec66078e42733ec2eb751143574a9",
    "meta-powers_of_two-range-absolute": "0d15d97676cb9ac86ebd101c096a871cb3bef1793b27ccb99633d97286ad3252",
    "meta-quadratic-box-absolute": "ba9f8bb1fe2700623304273dd4929bfc834b9d8d31deeb739be42842784d1dd9",
    "meta-quadratic-range-absolute": "131f4f95c078c932947fc9aef13323897ca289be6aceda27cdfd38cf59e8c702",
    "eg-square": "a0fc4e2f927d9c1819fee4d0025667d2a811f28083eb34618929798c2edab441",
    "tree-d1-box-square": "18ea76c1a1420b8d521f7efa638a8d8d109852cacd6184d9f49ba318b5ba40d8",
    "tree-d1-range-square": "24a73962e44cb2992eb4718cd6ab06c4d2cc2940a439ad7e6979f8e3046b0a12",
    "tree-d3-box-square": "96bf7f1c2d0b8b2fd1b6aff6343f854ded80f4692a2694b17d1967427feed313",
    "tree-d3-range-square": "6d00a14d19765f060a5217951e640143217e7b6a25b07b879d891adce921f9d2",
    "meta-powers_of_two-box-square": "5464e32186dd52bee5a373cb894d7527ca418361170f39cece3af39a14a11444",
    "meta-powers_of_two-range-square": "d7c6779dee4fffbb26e620deeef90634f0d1c9227c11a7b0733436f6e07155aa",
    "meta-quadratic-box-square": "a2a0284c152ad49509ffea317e8f7cc52de7cdca324a0095bf77d228644d5cd4",
    "meta-quadratic-range-square": "8de43bcac68d33f412d4421bca3cc55756f8cb7386ed61cf5ee0021765159fe2",
    "eg-pinball": "8f013f93640f4cd3d84bc97b5c9003841ae09c0ad421d6a545be5848440c99a3",
    "tree-d1-box-pinball": "e824fcf89bc80248c05d79dcde3b7b455c34d5b99b35d7000c0f303bb7ad893c",
    "tree-d1-range-pinball": "bad844e18132473dea7bee53ec01822fee770241bfeae1e702ccfde835b319a0",
    "tree-d3-box-pinball": "cb18a6aa7e30880719ab39b20839f892a150d491d09b0a2230f0449e61e970ec",
    "tree-d3-range-pinball": "56d7e99c22d709c0e24d8f83812a7755a43113368ae92cd9e43f6e6bf083265e",
    "meta-powers_of_two-box-pinball": "b1c613e0ef52568501e3863f4ac33575eee694e5b91130c03cdd309eeb82bcc2",
    "meta-powers_of_two-range-pinball": "127196864152f0c58b44eb9dc55d2ff8e08972606940ab50a0ee9e2439152a1e",
    "meta-quadratic-box-pinball": "6fb51187be278af41875ec43bf73b89f20ffda8fb5f1614f1a7b22a3ee20b5ce",
    "meta-quadratic-range-pinball": "d17703b41fe6068b30e01d4fd33ac6540b8fd98b820211926aee301130d743c7",
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
    rundir, rewritten = tmp_path / "run", tmp_path / "rewritten"
    run(*case(name), rundir)
    assert digests(rundir) == GOLDEN[name]
    # the writer turns what the reader reads of a log back into its bytes
    write_run_log(read_run_log(rundir), rewritten)
    for file in ("steps.csv", "summary.json"):
        assert (rewritten / file).read_bytes() == (rundir / file).read_bytes(), file


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


def verify_digest(name, rundir) -> str:
    """The sha256 of what ``verify_bounds`` finds of the golden case ``name``,
    its log streamed to ``rundir`` and read back."""
    config, ys, xs = case(name)
    L = 1.0 if config.forecaster == "meta" or (config.forecaster, config.d) == ("tree", 1) \
        else None
    run(config, ys, xs, rundir)
    checks = [c.to_dict() for c in verify_bounds(read_run_log(rundir), L)]
    return hashlib.sha256(json.dumps(checks, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", list(cases()))
def test_verify_bounds_digest(name, tmp_path):
    assert verify_digest(name, tmp_path) == VERIFY_GOLDEN[name]
