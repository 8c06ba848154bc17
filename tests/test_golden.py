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
    "eg-absolute": "91ce49d7031fa762c5ea46514aacc5186ac7fedb487d11a78f523d908ef2636a",
    "tree-d1-box-absolute": "9968200696b56e161da90d95d1d651d96be8ebd07a88bdee2042d7e865870fe8",
    "tree-d1-range-absolute": "8ca4c0402b0b5598002de27deae8321d2ed41f87c6e7d40d9b1feb656acb9f9c",
    "tree-d3-box-absolute": "e01e07458882ce67201a528dce113bdfa049d6875ea40d0f5271bede0c153e31",
    "tree-d3-range-absolute": "6b20276d1aa5656ec5f553dff35f3eef5012f02a3fb02d659bc072cfa4885679",
    "meta-powers_of_two-box-absolute": "87512dada8c46f291cd47415590a5560ec42c84f7f2d474edf967b770a3430f4",
    "meta-powers_of_two-range-absolute": "66ee85ae87e4fe28882bf45295b9195a3d1b972d89c4e13c1b61763520c3c0ec",
    "meta-quadratic-box-absolute": "a9f71483f66ce4d6013a706caf3548b8d3f61ee711abdfafd44375d0bee4422b",
    "meta-quadratic-range-absolute": "de127f4a40ed8c4b3ff1f44d029c325852e962921af8abc5fb2751d41ed2dc8a",
    "eg-square": "17a53bcfc0c4bd159ab2296f5f64a59c05ea17616715f23568a1d3b3355b60d8",
    "tree-d1-box-square": "b989d637bb0f40454f844c6bb273b81c11b84bf09f8b07624063070128019a51",
    "tree-d1-range-square": "b51bab3dba820141fd2e3e8dafa71cb3d9638b77bb46e8a7265bf8c2b481e9a5",
    "tree-d3-box-square": "aa9c63c86c0580ac4c60e9fee538a0079fdb006404bc4de76e68e86f1bb9f476",
    "tree-d3-range-square": "cd04eea23d07f9f3f6cc27f46c8ee61e22b7d9d8524ac410ba849409df8a686e",
    "meta-powers_of_two-box-square": "ccf4a86c8819dd3763872cfd182dc7d1409020385384b8c8197239b93e0426b1",
    "meta-powers_of_two-range-square": "d565840bdd3dd439920c752bb72dc533397b82594ab3f3ca21b475e8499fc9af",
    "meta-quadratic-box-square": "e031590e5e7fcf59254e2514f40c0c65be30f394e607dae6c0e863a526234a18",
    "meta-quadratic-range-square": "01ab67218ec5ec10008604c60d025c06ea94aaf364bd4fbc1135f9b81731af2e",
    "eg-pinball": "b7dc18382ecb63ca419a20d8543a40a879a72a7fa694b799f036ba84228af279",
    "tree-d1-box-pinball": "7d9df7e6946be679dc392d22e381ca55dd6a5f79adb4718c0f2cfb6cc69e9be3",
    "tree-d1-range-pinball": "99d881e3da9a35082f0c885123437a9cf2b382564ba6ebf58f0061b9b621f21c",
    "tree-d3-box-pinball": "fc547dad80e5e64a463637adc3e71322274784d562029114d26775b1280e394d",
    "tree-d3-range-pinball": "e947b02584a70a48edc4ba6d1c7665710e81a015f5151b6995f6014bf0d874cc",
    "meta-powers_of_two-box-pinball": "ba18b2e16b54360712bcdb3f2cc0e4228082ed5e777f73cf3bd4d89fa49a4baa",
    "meta-powers_of_two-range-pinball": "775c7611fcd980aa37ed0d2037f22412a8033051a8bed0f521420d6494b3ddef",
    "meta-quadratic-box-pinball": "a24f6fe8c70953f148b7c0233088eb54c81c8f5c4d598a8a8efcfd7d577a8382",
    "meta-quadratic-range-pinball": "6f23c74318a42200acb16ec706899c7cf07018400a8d6dd3e5bf91df3085ea98",
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
