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
        "7712b1a6896767527608fa7837f1a48aeddf348a4183c45fba1550c02dc82918",
        "54cf41e587709a1d93f8ae03c7e793a164757caae01df186cfe6591ec2ec4bac"),
    "tree-d1-box-absolute": (
        "44ca7be0f5177a5faed16883df0ff69d9d0d6662d892e3a530aaa39590e293a5",
        "2bc137be98dd8b31195dfbe3eb17c5b3dc350f75602929421275f2c7f33b6615"),
    "tree-d1-range-absolute": (
        "f0c34e5e9dd5a7f6afc0b6796d5ae011162783d1a75e27233342656b80ebdd2d",
        "952d8a87a1f57add7122d0d3b3224dc6010310b4f819224e36b40597a4363fc1"),
    "tree-d3-box-absolute": (
        "b7d5e3a18ce3b402f28992a423a8859075dc879db24f2f5b021249bba42cecdd",
        "f5f36324086737cb8935271d75f2116cbf4d68a5bb7b7f4fc4218d807db4abe7"),
    "tree-d3-range-absolute": (
        "3e77f962f02fed063355c983b1fca30b92f1f62708d7381c21810a5e1fee80f3",
        "01b3fe1740afd428963cc3b0eff75afeabcb373c91cfa2b1f2b2cc2f945aa7c5"),
    "meta-powers_of_two-box-absolute": (
        "6e9c53fb4258f60bb0edcc32b645a60c3393fdf99ba8b2d587f74ee3d510015c",
        "6de6cb8e22cec5efeeaf604734fdd77c1547edfd9f12ab0b06053cab87f583d5"),
    "meta-powers_of_two-range-absolute": (
        "2cc8502009f55514b7548063a49f27fe2f852780c1c4765f048058ca7aaf4e17",
        "d0384cf6bf5d0c6597c11d5128f9d145de165b3f1ace3df7728c499a330a24d0"),
    "meta-quadratic-box-absolute": (
        "9547eb66ebfa2cfdf938cdb7f3c2041dd0a5c122e921451ace35dec3e4c9854a",
        "f3a195ebef5ecf3833557699f0f3ba05326f3c97227685f07cd981db577a3476"),
    "meta-quadratic-range-absolute": (
        "e887ef9e3afe8e6a73b6eb0b53747ee1be61e3073575ee4483351d170848677c",
        "a674217edb6423c9c7b82638140c14c1d757441b30b1394b3ba5866d3f261e51"),
    "eg-square": (
        "9c9573c4b179e2de53fed42daef3facc2dd12c8dc5a3510e489746b44c165682",
        "3ff7e83b75ff9f0a35717a3438e26bd62be063ce05f68381f6820a73534478ea"),
    "tree-d1-box-square": (
        "15ec0f9ef878a71d33da442c86868e8b10296f3e28f1d01cb315d834daa3baba",
        "22bb150c3b59964510c1bb237b740c6663c36d5d63d3d8b245263c3bf27ac645"),
    "tree-d1-range-square": (
        "40e6745fc85d5ba540bacd001a9fe878d16dc4811d9ec8905a7973c09f0ef2da",
        "4cc38a7d5c778d373bd5ae54761efcc78b74238d60e96b2b99413f3f87b682ba"),
    "tree-d3-box-square": (
        "9ce474565cd63a29d63c2926edd41504828a85eeb4266c64e81e925188b95cb7",
        "7efd20b70e46f515a3931f30bce7940c369169d523904694c740e5d67788fc50"),
    "tree-d3-range-square": (
        "8cc6c2d08b0ebc0d5d3113be3fe386dfb9de1a8f2017f0495e2598ffd307363e",
        "4fc518d4dfbf5fcf07a346f062f1b8c77fda547d18a1cfc031855b0fc4a91892"),
    "meta-powers_of_two-box-square": (
        "9701e8258b080e67a9ad4a70507fd954ca677089f768a30facbb586de5497837",
        "b75ea950e4c761b079702da97994025c8a0e8c9f0fe547384799790df34fbf15"),
    "meta-powers_of_two-range-square": (
        "03e8fc9a6d518388e2f6707395d4cd7df1dbc4f97c73afa4112e8a0534945fe6",
        "236cb858060c105ca6ceb60a76f0b858e4981db681220dcda16f4b72d02f4270"),
    "meta-quadratic-box-square": (
        "bcaf674a2cfe7f9b4b671793d3ee4da56082254048254c0e0e00ffb2396c6eba",
        "f2db677530f0d0dcfede24e00da813528bfbcde26ee87edd8b3ed0d95ca607d3"),
    "meta-quadratic-range-square": (
        "13068a4adb052278bc32a91781c4c07cca7126d0728e0eba6638298bbf0b8342",
        "25ba9b92d9ddf11effd3cd6e23e045b50ff773f3ff47bf599268dfaf49e2537d"),
    "eg-pinball": (
        "fa43ddcbe7d53d96f9502960a8d2ae9e0d80444d6e0f1162b163f72d55eb82c7",
        "99e01e91e9d65433b6557448c69ab8e854b1694383272b911d9d14a97646bcd7"),
    "tree-d1-box-pinball": (
        "c48395373a7e97ec593f8ca54e003fb6f8af951ff00f2fc930824d0e15a2ff9b",
        "ea01c5b4aea37b7c224babfaa0e6194c2f0d1fff955ab62726ec78e1933f8b44"),
    "tree-d1-range-pinball": (
        "862a33ffe27d55c05348035de1985be816766b9c1dffc8026c83e75404876f0a",
        "1e6321a22a4620dec074598fed26d24e1603c572172aa3380189bf3e4781ae38"),
    "tree-d3-box-pinball": (
        "f20fe379246a1e79850dd1af87d0b0c7a20ae1bc22ed59e7c7a03cff3a5abfa9",
        "376340c69ef0d24d67a8a3b50b6db7b9bca21543ba97038372a30453ee994d7c"),
    "tree-d3-range-pinball": (
        "902484acb05b12af1deaaef74c43f3a13c8c121593056b57d74d94f21a8a72ae",
        "3ce11320e382fc50be095e0a63453d3512a69977a64709e6c36ea74b163c5bec"),
    "meta-powers_of_two-box-pinball": (
        "f71e2e0472ed280d195858e7efadc08a48d432e48fb8ba5d933108a515272a26",
        "90632d0b2b952f5b8b0aeb0a0b0cba691d88105287df68f71949591e88a440e9"),
    "meta-powers_of_two-range-pinball": (
        "1526dc1a4465bab693b93125e7b55c306b2a3acacc59af52bd9c4b3eaa3842be",
        "510c86222ce0a2eb4683b01f8dad86e430254d04accaa7b6b7d7722f3db96d87"),
    "meta-quadratic-box-pinball": (
        "3a09b3fe36504e0910e22f1b1464a4fed6d06b54b8d1778a01596d05cfb45c15",
        "2f96f63d409ba37fd6976aa38bc91c08987f262f25d985ab7d765a4ebf9c1ab8"),
    "meta-quadratic-range-pinball": (
        "0f2c503920d1206c0ec694bcf3e76b22b5c611614d696be9de845879be2a5ab3",
        "4058fd2af91ce741dd659b817f31fb8d1356abc2e03350abb7a5f6eea5c46173"),
}


# sha256 of the JSON of verify_bounds(log, L), with L = 1.0 where a
# Lipschitz-comparator check exists (tree d = 1, meta) and None elsewhere
VERIFY_GOLDEN = {
    "eg-absolute": "91ce49d7031fa762c5ea46514aacc5186ac7fedb487d11a78f523d908ef2636a",
    "tree-d1-box-absolute": "9968200696b56e161da90d95d1d651d96be8ebd07a88bdee2042d7e865870fe8",
    "tree-d1-range-absolute": "8ca4c0402b0b5598002de27deae8321d2ed41f87c6e7d40d9b1feb656acb9f9c",
    "tree-d3-box-absolute": "e01e07458882ce67201a528dce113bdfa049d6875ea40d0f5271bede0c153e31",
    "tree-d3-range-absolute": "6b20276d1aa5656ec5f553dff35f3eef5012f02a3fb02d659bc072cfa4885679",
    "meta-powers_of_two-box-absolute": "a273643851bfdf762b77eb97446de27b01999c57b3ddbb9402f407e2f0435a89",
    "meta-powers_of_two-range-absolute": "0dd097bfd201c8c08882463c5d007f5cf3d42387508f1ebb9704664c96faf246",
    "meta-quadratic-box-absolute": "0b80fc8bbab632eaee4e22237d364dcdd34f6063f652e60720f2f03f05db4240",
    "meta-quadratic-range-absolute": "51cce7ac7737e4cd8b619e7c971319d88b3c087657643df762939abd5a52d978",
    "eg-square": "17a53bcfc0c4bd159ab2296f5f64a59c05ea17616715f23568a1d3b3355b60d8",
    "tree-d1-box-square": "b989d637bb0f40454f844c6bb273b81c11b84bf09f8b07624063070128019a51",
    "tree-d1-range-square": "b51bab3dba820141fd2e3e8dafa71cb3d9638b77bb46e8a7265bf8c2b481e9a5",
    "tree-d3-box-square": "aa9c63c86c0580ac4c60e9fee538a0079fdb006404bc4de76e68e86f1bb9f476",
    "tree-d3-range-square": "cd04eea23d07f9f3f6cc27f46c8ee61e22b7d9d8524ac410ba849409df8a686e",
    "meta-powers_of_two-box-square": "3f1d87a78d461b468066064cdd281489b45022de41b557b9a6948b1215d58132",
    "meta-powers_of_two-range-square": "65d30a880b74f28112dfa358ed577203a4eac83a5ef384f55439be48842b284d",
    "meta-quadratic-box-square": "94c8e5c3d3683cc133f7b5c689d8af8c7aa205d753c79ce8dd81bb0d24484057",
    "meta-quadratic-range-square": "e6466ce5ab970e06901a6bc6e3cbed21bc8a6921d2f51e1c140a2b299bd776e4",
    "eg-pinball": "b7dc18382ecb63ca419a20d8543a40a879a72a7fa694b799f036ba84228af279",
    "tree-d1-box-pinball": "7d9df7e6946be679dc392d22e381ca55dd6a5f79adb4718c0f2cfb6cc69e9be3",
    "tree-d1-range-pinball": "99d881e3da9a35082f0c885123437a9cf2b382564ba6ebf58f0061b9b621f21c",
    "tree-d3-box-pinball": "fc547dad80e5e64a463637adc3e71322274784d562029114d26775b1280e394d",
    "tree-d3-range-pinball": "e947b02584a70a48edc4ba6d1c7665710e81a015f5151b6995f6014bf0d874cc",
    "meta-powers_of_two-box-pinball": "71fe051be486e4e9a89ff0344cb1e94739789e4ef15a371b8952d26689c3e877",
    "meta-powers_of_two-range-pinball": "f532a1f4adedd7cfc0c36b795ebdba7d944a344481420c8390df918773761d18",
    "meta-quadratic-box-pinball": "f7ecc880db9a569772efc9cfa549b07383dda7c2bbf85ceddbdb88f0d78b7265",
    "meta-quadratic-range-pinball": "94bcd3f9675913133fc2c54d2267d64717761f074cfbbde4f7711422884ec4a0",
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
