"""Byte-level pins of pipeline outputs and of the bundled templates.

Like tests/test_suite_digests.py, each pin is the sha256 of a file written
through the CLI (or shipped in the package), frozen from an earlier version.
C10 only compares two runs of the same code; these pins catch a suite,
prompt, record or report file that changes across versions, whichever
subcommand wrote it.

- `report`: one run of all four task x distribution cells on
  bundled:turkish_demo against mock://random. run.json (it holds the config
  paths) and the response cache are not pinned.
- stages: gen-nonce -> build-suite -> render -> evaluate -> score on the same
  corpus, one systematicity OOD cell.
- templates: every file under src/morphsuite/templates/, including the ones
  no golden prompt renders.
"""
import json
from importlib import resources
from pathlib import Path

import pytest

from morphsuite import cli
from morphsuite.suite import file_digest

REPORT_DIGESTS = {
    "productivity_id/prompts.jsonl": (
        "65de6db74879a5a026aa7f6347e946f52ef935656cceb86cba1ef2eee76dc64c"
    ),
    "productivity_id/records.jsonl": (
        "04f43002e9378bc71d26e8ea76b563d432eab13fbc765d38c9466059f5ae4f4e"
    ),
    "productivity_id/report.csv": (
        "2ebf9cce6f21f8617c5a517ef65c93331ed8edbd1cffc7ea6aff80084495c5e4"
    ),
    "productivity_id/report.json": (
        "6a3ca96e686532b0d64a3c88bb2166b114c3d5ffef9dcba97749ab381da37164"
    ),
    "productivity_id/report.txt": (
        "4f63d0681d6993c2c7f918f5059931c085a0bcd4a94b532fe27142dac268614e"
    ),
    "productivity_id/suite.jsonl": (
        "13e39875712d72ea86c3c699b25b51131bfc4d673f4decbec68b88be34791a7a"
    ),
    "productivity_id/suite.jsonl.manifest.json": (
        "8d47489bc837f2e42cdf8eb7533921bf980e8723521a29dbc5b2b2dae15e9c60"
    ),
    "productivity_ood/prompts.jsonl": (
        "f68f69aae25b2c28af6e2d4220b6d30214409c9d2142349cd7122dbb12399593"
    ),
    "productivity_ood/records.jsonl": (
        "f8c3c283c51995944b2e1d08ccdb12858eb3dd671df157d9e61ad507aa9b4f64"
    ),
    "productivity_ood/report.csv": (
        "d10835fec88b5427c081d26a07212fb7e04a259afabf226dad6a45e94bd2ddc0"
    ),
    "productivity_ood/report.json": (
        "bba054319e8e7ba1faa4d807072079d1315501c035e25490bcf46eca2e1e680f"
    ),
    "productivity_ood/report.txt": (
        "bf56e58678be187fdf0937552a7afc3daea5649ebfe8f05220751d546e7680ec"
    ),
    "productivity_ood/suite.jsonl": (
        "7da5898a82cf351c8c2e35d8d87e9ae362c431bfd79eb98ba185d43e75dee830"
    ),
    "productivity_ood/suite.jsonl.manifest.json": (
        "8ce296129f64eea958271cb5bdd9561ad69497efc393dc5a7a23ac8cd8b5dca2"
    ),
    "systematicity_id/prompts.jsonl": (
        "f19fa222e085595923ba460765f29b43f981eccfe39478084259432dcbc94ffc"
    ),
    "systematicity_id/records.jsonl": (
        "aaa8c8fd2da4bd96eb0274677e95ad4014ca62b7a171b574cdaf6902c37c54dc"
    ),
    "systematicity_id/report.csv": (
        "bafbdff034e0462d2f111cf62671ae606751b2d052aa47676d0390c0c88bdd0e"
    ),
    "systematicity_id/report.json": (
        "b91553700e3c467826ea26f1b6a816ac2cc8b2e0991ddacca7ad561685f7f324"
    ),
    "systematicity_id/report.txt": (
        "32c9c83b94d14ffa17202142cf8e6f707f45de65e9e016182efb194abcf48ffd"
    ),
    "systematicity_id/suite.jsonl": (
        "5d92007f9ea69166c79495948ae10a9af8ee611ba0cd285cfa2b4e23eb6319af"
    ),
    "systematicity_id/suite.jsonl.manifest.json": (
        "e045fed5db834afd3e8f51de3c902021032f822b4c37fe64c4c03858334f32f2"
    ),
    "systematicity_ood/prompts.jsonl": (
        "a39be9aa0370922bbb24ce5870701f5cad70a4128fdb6fcb925b4eaae89539d1"
    ),
    "systematicity_ood/records.jsonl": (
        "0bf126afcd9879a343b2d4368084ad871c97eb29289a5cf0fd96ea9facc94fc2"
    ),
    "systematicity_ood/report.csv": (
        "e71ca5d38168bccca7a70839f0d6500b79bdd2e03ae97ffb34839ea06b842bb6"
    ),
    "systematicity_ood/report.json": (
        "ed53c88c086110d0499bb9be475b01aca505a370ae14111903732d605ecbe782"
    ),
    "systematicity_ood/report.txt": (
        "0cdbd5bbc7fd3b1afbe32fd1dbcaa7c8578a440c532333961ebd1d7ab45188e4"
    ),
    "systematicity_ood/suite.jsonl": (
        "f091ec896caf0a3edebd7b5c747303ecbdf777e676ffc6490c0990bb2191ce2e"
    ),
    "systematicity_ood/suite.jsonl.manifest.json": (
        "ad3e76447ec381c51d4bdf46300f2bc21492f310c04938fd430f9aa10a472977"
    ),
}

STAGE_DIGESTS = {
    "nonced.jsonl": (
        "c5679aa5cb65528516ac871d7110ef6e7d423bfd78e4328158ba8ee885d0382f"
    ),
    "prompts.jsonl": (
        "3a9874e1c1c4523e1e508b7a5ff1a6aa66bc087870d44977eefcc4f36578fba0"
    ),
    "records.jsonl": (
        "ed3a753eea53ea4bb8528185987fac34da6d1b5fdd35d0ec5b3959b904cebf5c"
    ),
    "report/report.csv": (
        "294b532a5e73b020e042a4a7ac4e460179788f2f11baf8426c3f82af9899c6db"
    ),
    "report/report.json": (
        "3eeebbffe12010bcf0f0fe4c711cd95b3d9fffd720d8e35661bc9985763c844f"
    ),
    "report/report.txt": (
        "fd89bc0d0a218250d501778dc87293270aae385050f443733c32020d8511a634"
    ),
    "suite.jsonl": (
        "36ea5cb128bad7caf768368d0b8cca4f2e55c2b4e7de9b2796a939f6dbed2f34"
    ),
}

TEMPLATE_DIGESTS = {
    "english/productivity_id_context.txt": (
        "2b98d39c018f48d3073a47e7f3638f3089a2da12421b36b3c5ef4ea94a1724ec"
    ),
    "english/productivity_id_cot.txt": (
        "e291215eb574a1ea34cfce569a5d663aad3cd680bfd2507abe74fb51ec371f62"
    ),
    "english/productivity_id_paraphrased.txt": (
        "f8e289473d5f9db0c79aa5dae0118289ad4b2e4a9260e30ff00c6f24de65e479"
    ),
    "english/productivity_id_standard.txt": (
        "dd8cbadc1c45691460994f5ba9fe49cecfbe13d8a6fdae21a81df68b35937426"
    ),
    "english/productivity_ood_context.txt": (
        "b9b54cf3f76f387db707e4e98f8843f5b48259b69cb9a50664bad64dca196b9a"
    ),
    "english/productivity_ood_cot.txt": (
        "13cd6f46d7434d69f0f473fa619ffdc04e2930746559c075c00975d427da9e9a"
    ),
    "english/productivity_ood_paraphrased.txt": (
        "0812e74d9bd76f1302544160cf5947099b7702123eeeba6f4c5b3799700e0171"
    ),
    "english/productivity_ood_standard.txt": (
        "7b571fafacf43bf3ee0c092dd7b34ca20a002a3a0187cafc644a30fc77d7c825"
    ),
    "english/systematicity_id_context.txt": (
        "f7beb4c0dc672d81d5f2de3e3b48ec7968a4870c92389c79597f5327a08ea685"
    ),
    "english/systematicity_id_cot.txt": (
        "a7ffb427a43413a2e8d09df921eadea0784afa39e23fe78d5c2f1adb91114642"
    ),
    "english/systematicity_id_paraphrased.txt": (
        "f487a06f480b8b746410b2bbedf76ba13984708a9dba678e95ea35a9079e46be"
    ),
    "english/systematicity_id_standard.txt": (
        "f4f765e2b767da5dff9d4d293cbae612f8229c921a6fd6c37a8f652a52edf882"
    ),
    "english/systematicity_ood_context.txt": (
        "c071ad3432fc67d26273bc8a158d64c84a19cbe8a1e6cc62ac709eccef25040c"
    ),
    "english/systematicity_ood_cot.txt": (
        "23ef395258a92cb3e69513852081306cda1aca5036eafb1db72d38099ae3bae4"
    ),
    "english/systematicity_ood_paraphrased.txt": (
        "b5fe6f3c41e4659095f2195475cadf7b897ce69bd39eb2a8f7dc06a677a6251a"
    ),
    "english/systematicity_ood_standard.txt": (
        "76adb2d055b626c914e3a597ca335c2f685553607fc9cc90f47037e0a79f22a7"
    ),
    "finnish/productivity_id_context.txt": (
        "a9fa9e90055b41944b9174d88fbb5ac3cd0b16352a8cae6fef8730e4f73e0ab2"
    ),
    "finnish/productivity_id_cot.txt": (
        "dabcc369e68983b619ff6c9e3c58e63660a5b1d038a6a7a520ffa847960a3c5d"
    ),
    "finnish/productivity_id_paraphrased.txt": (
        "f3589969a3ade1cdcd54186110fae1ea27276e75ba4442b1800db42dde01f831"
    ),
    "finnish/productivity_id_standard.txt": (
        "2395093408939ad8b1de3681161229df49fb4fa2d6b314e1526fc24900481749"
    ),
    "finnish/productivity_ood_context.txt": (
        "abceb9351ffbdf54fef0d0bb0355c1d4724688c478d52b59985d568115406bbd"
    ),
    "finnish/productivity_ood_cot.txt": (
        "9a0623c8550e4a94e0c734da03090dcdcad4cf96f08543a9bd3c0da403432714"
    ),
    "finnish/productivity_ood_paraphrased.txt": (
        "deee77c85ab5ba258d12570a3bb30eb325404f50f51aa669029c98f309a2a0f3"
    ),
    "finnish/productivity_ood_standard.txt": (
        "ab951b36f443d716cc39c8919b677d7acf5a77a3e43ddae61856707e702f3171"
    ),
    "finnish/systematicity_id_context.txt": (
        "aabf36537977c055e93dde1645b59cec12844fc1b53f757fb6bcf49ec633382a"
    ),
    "finnish/systematicity_id_cot.txt": (
        "2119003c848cdec4ca00f69049ba16a744a9b25761639bcca3660491c01019f5"
    ),
    "finnish/systematicity_id_paraphrased.txt": (
        "b7fcb04f435472ab6bb8282ffac19bd64f43d9a160719a025f2e671d3840bc09"
    ),
    "finnish/systematicity_id_standard.txt": (
        "d8e2004a94f04d5ae44973e60b77504353849f8ca7e3ec8de1fea42822a5ec2f"
    ),
    "finnish/systematicity_ood_context.txt": (
        "3d6ab0cdc09c12ad28ece86a8569f30206f1051ea48f1f45e674a9d582119b0b"
    ),
    "finnish/systematicity_ood_cot.txt": (
        "0444ad28eed214e37ea92ce2b06d29fec9e875973fd7490d877914065edcbc3c"
    ),
    "finnish/systematicity_ood_paraphrased.txt": (
        "c0a0d93523a2eaeccec215b335107d3c11a3bc94a7a9344460a92bca8e1087e8"
    ),
    "finnish/systematicity_ood_standard.txt": (
        "aec77c67eb0855e2a4a52085db1081ecde732ac556b3d3b4c90cede9def2a871"
    ),
    "turkish/productivity_id_context.txt": (
        "5d0a4454f5faefcf480d11b8a937db8dfa629847cfd5c5f07de90c2b552e15e4"
    ),
    "turkish/productivity_id_cot.txt": (
        "17e35c3a3d35772695b371fb53c875b363ebec75cc5a2627db67999ffaed5ab1"
    ),
    "turkish/productivity_id_paraphrased.txt": (
        "9fa877bec16716d7e8de08cb52642c38765f29d1d1cbed5e8d773405ae1c288e"
    ),
    "turkish/productivity_id_standard.txt": (
        "b7d67aa64f34c6b41504a0037966dbf8b7f8d61dc269f5358e1090b713211441"
    ),
    "turkish/productivity_ood_context.txt": (
        "b8c4ba33b70f3bad76c0e0b0ebf1212c775317822c89109c3c7e4aa08b9baeb8"
    ),
    "turkish/productivity_ood_cot.txt": (
        "9215e81a5c1098d6e742c0d350b9dee04b2e924af46272d6ade5353d06c32207"
    ),
    "turkish/productivity_ood_paraphrased.txt": (
        "78e680f645b984b5d5c44d22c71823fb600915846d915b38e02f3f2086d7f4c9"
    ),
    "turkish/productivity_ood_standard.txt": (
        "7098a5f1bda1e50c8a9eb719cffc0e59377f76605a2ad7c3a7fc23e5dd5dd98a"
    ),
    "turkish/systematicity_id_context.txt": (
        "9187c9810592baee59363ed571fd981324640dcbc4a2a739fe2839c81b0b55fc"
    ),
    "turkish/systematicity_id_cot.txt": (
        "9df8543e14ea2e8695ee8cb3fcb33bb0bcc1e71cc0956712158f5762b4233a9a"
    ),
    "turkish/systematicity_id_paraphrased.txt": (
        "8e1650d7a1bea03bc5fcc6e067e3254e483ca872c3496dfd9381782fc4ae5221"
    ),
    "turkish/systematicity_id_standard.txt": (
        "34a01152d9549d59b50adcf3139370cd67a2054c7754a3c623f7ea37c5c33739"
    ),
    "turkish/systematicity_ood_context.txt": (
        "c0e8c6bdab4326aead647cb05a858acb15e57710b087bb0e421d01c62d3511b7"
    ),
    "turkish/systematicity_ood_cot.txt": (
        "22e8c70115379b7d263df1817fdec0363b447fa6cacd922dc8aa18ab4f4fa0d3"
    ),
    "turkish/systematicity_ood_paraphrased.txt": (
        "589e7eab9f89073ae5465321bac15a75d909707b4936cb15b650e1f3c98fe070"
    ),
    "turkish/systematicity_ood_standard.txt": (
        "503905a843772f911b572c4524941aab16a375a829693c6b85a362554b76144a"
    ),
}


@pytest.fixture(scope="module")
def report_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("report")
    model = root / "model.json"
    model.write_text(json.dumps(
        {"endpoint_url": "mock://random", "model_name": "random", "seed": 3}
    ), encoding="utf-8")
    config = root / "run.json"
    config.write_text(json.dumps({
        "language": "turkish",
        "input": "bundled:turkish_demo",
        "model_config": str(model),
        "seed": 11,
        "shots": 1,
        "out_dir": str(root / "run"),
    }), encoding="utf-8")
    assert cli.main(["report", "--config", str(config)]) == 0
    return root / "run"


@pytest.fixture(scope="module")
def stage_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("stages")
    (root / "model.json").write_text(json.dumps(
        {"endpoint_url": "mock://random", "model_name": "random", "seed": 3}
    ), encoding="utf-8")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)  # the score manifest records the paths it was given
        for argv in (
            ["gen-nonce", "--lang", "turkish", "--seed", "7",
             "--in", "bundled:turkish_demo", "--out", "nonced.jsonl"],
            ["build-suite", "--task", "systematicity", "--dist", "ood", "--seed", "7",
             "--in", "nonced.jsonl", "--out", "suite.jsonl"],
            ["render", "--suite", "suite.jsonl", "--shots", "1", "--seed", "7",
             "--out", "prompts.jsonl"],
            ["evaluate", "--prompts", "prompts.jsonl", "--model-config", "model.json",
             "--cache", "cache", "--out", "records.jsonl"],
            ["score", "--records", "records.jsonl", "--suite", "suite.jsonl",
             "--out-dir", "report"],
        ):
            assert cli.main(argv) == 0
    return root


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_report_bytes_pinned(report_run, name):
    assert file_digest(report_run / name) == REPORT_DIGESTS[name]


def test_report_pins_cover_every_cell_file(report_run):
    written = {
        path.relative_to(report_run).as_posix()
        for path in report_run.glob("*/*")
        if path.parent.name != "cache"
    }
    assert written == set(REPORT_DIGESTS)


@pytest.mark.parametrize("name", sorted(STAGE_DIGESTS))
def test_stage_bytes_pinned(stage_run, name):
    assert file_digest(stage_run / name) == STAGE_DIGESTS[name]


def test_template_bytes_pinned():
    base = resources.files("morphsuite").joinpath("templates")
    found = {
        f"{language.name}/{entry.name}": file_digest(Path(str(entry)))
        for language in base.iterdir()
        if language.is_dir()
        for entry in language.iterdir()
        if entry.name.endswith(".txt")
    }
    assert len(found) == 48
    assert found == TEMPLATE_DIGESTS
