"""Byte-identity guard: CLI outputs on three fixed cohorts.

Every case runs ``cli.main`` in process and hashes its stdout and every
file it writes.  The recorded SHA-256 digests pin text reports, model,
rule-set, report and cluster JSON and the profile CSV, so a change meant
to keep behaviour must keep each digest.  The path printed after
``Model written to`` is masked.  After a deliberate output change,
``python tests/test_golden.py`` prints the table to paste into GOLDEN.
``tests/model_digest.py`` over 20 random weighted datasets is pinned the
same way.
"""

import contextlib
import hashlib
import io
import random
import re
import tempfile
from pathlib import Path

import pytest
from model_digest import digest

from ldscreen.cli import main
from ldscreen.dataset import serialize_arff, synthetic_checklist


def _numeric_csv(n=200, seed=3):
    rng = random.Random(seed)
    lines = ["x0,x1,x2,x3,x4,cls"]
    for _ in range(n):
        x = [round(rng.uniform(0, 100), 1) for _ in range(5)]
        label = "pos" if x[0] + x[1] > 100 + rng.gauss(0, 10) else "neg"
        lines.append(",".join(map(str, x)) + "," + label)
    return "\n".join(lines) + "\n"


def _arff(n_no, n_yes, seed, missing_rate=0.0):
    return lambda: serialize_arff(synthetic_checklist(n_no, n_yes, seed, missing_rate))


#: cohort name -> (input file name, function returning its text)
COHORTS = {
    "paper": ("paper.arff", _arff(94, 31, seed=7)),
    "gappy": ("gappy.arff", _arff(600, 200, seed=11, missing_rate=0.1)),
    "numeric": ("numeric.csv", _numeric_csv),
}

#: case name -> subcommand and its arguments; ``--input DATA`` goes after
#: the subcommand and output file names are placed in the working directory
COMMANDS = {
    "train": "train --out model.json",
    "evaluate_tree": "evaluate --learner tree --seed 1 --out tree_report.json",
    "evaluate_rules": "evaluate --learner rules --seed 1 --out rules_report.json",
    "evaluate_majority": "evaluate --learner majority --out majority_report.json",
    "rules": "rules",
    "rules_simplify": "rules --simplify --out rules.json",
    "cluster": "cluster --seed 2 --out cluster.json --profile-csv profile.csv",
}

#: answer sets scored by ``checklist`` against the trained checklist models
ANSWERS = {
    "all_n": ",".join(["N"] * 16),
    "all_y": ",".join(["Y"] * 16),
    "mixed": "N,Y,Y,N,N,Y,N,N,N,N,Y,N,N,N,Y,N",
}


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _run(argv, case, digests):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, argv
    text = re.sub(r"Model written to .*", "Model written to <path>", out.getvalue())
    digests[f"{case}/stdout"] = _sha(text.encode())
    for flag, arg in zip(argv, argv[1:]):
        if flag in ("--out", "--profile-csv"):
            path = Path(arg)
            digests[f"{case}/{path.name}"] = _sha(path.read_bytes())


def run_cohort(cohort, workdir):
    """Digests of stdout and written files, keyed ``cohort/case/output``."""
    filename, make = COHORTS[cohort]
    data = workdir / filename
    data.write_text(make())
    digests = {}
    for name, args in COMMANDS.items():
        command, *rest = args.split()
        rest = [str(workdir / a) if "." in a else a for a in rest]
        _run([command, "--input", str(data), *rest], f"{cohort}/{name}", digests)
    if cohort != "numeric":
        model = str(workdir / "model.json")
        for name, answers in ANSWERS.items():
            argv = ["checklist", "--model", model, "--answers", answers]
            _run(argv, f"{cohort}/checklist_{name}", digests)
    return digests


GOLDEN = {
    "gappy/checklist_all_n/stdout":
        "b7a2aad45e879c773017d3e8466c10e4c3666ff570d40045fb915cf67fa51972",
    "gappy/checklist_all_y/stdout":
        "c169524db85592a1a8f263c04e0a2c6fb517d7cd22e56540e2eee69b683022a0",
    "gappy/checklist_mixed/stdout":
        "863198ffe287530a03322125e6f8e2b000307ea178de8374ff87893a18fbba55",
    "gappy/cluster/cluster.json":
        "6170690bf7096792178a9f573181cdeaec47142b6265c328e5a0d6fc5f212628",
    "gappy/cluster/profile.csv":
        "163b6e1c2e0104dcb17192b27f14772920f314ce394725e2f0bd005815516ddb",
    "gappy/cluster/stdout":
        "d24f6eb17fc0a72a90b37733d49fc3adb38dcc70fb9554fe924c163dbf6f91bf",
    "gappy/evaluate_majority/majority_report.json":
        "f85d07ad2384bc5770730fe42a22cd9b8dc64ec5691af46d2aec0da39c73b6f5",
    "gappy/evaluate_majority/stdout":
        "456245d44ee8f07dce54db5d7d540854d989948b1751f5926979607cd2dbb4b5",
    "gappy/evaluate_rules/rules_report.json":
        "5e756726d86d20909c99d2c6e350923e701b28e27fcb42a9b4ed95c3c335add3",
    "gappy/evaluate_rules/stdout":
        "d6acdda038a699742dfd221c28a417c415113c37f275201bc8556443182c2dd7",
    "gappy/evaluate_tree/stdout":
        "ca7e31d88008def621c6e477c2dbb619ae7e139fe444318ccc9adc78c873d74f",
    "gappy/evaluate_tree/tree_report.json":
        "53813048ef3a5f62b5070fa39e5aa5486bb86db986b13a2f7fe89cb8da526b82",
    "gappy/rules/stdout":
        "a8e910aa3e5936969212fcfd6d994da2406d56077cce9f744dc1c2a86f9132ee",
    "gappy/rules_simplify/rules.json":
        "7b8823dc9bf013b22b88ebafc1afc6cadeb3865470ab9b9baac7e3642dada534",
    "gappy/rules_simplify/stdout":
        "b90a4d39da567404de0f8679dab36faff3ea3273d4d8649d72c39c433b9f170e",
    "gappy/train/model.json":
        "960442510cbcd29dacf1b63c22bb1ca132877f33c46cd5af96f6e1b4c619f616",
    "gappy/train/stdout":
        "44dc057c3edc20aab561c1981daf6a7b0b6ef7849dfd11f51cb031aa66ccc0f0",
    "numeric/cluster/cluster.json":
        "c62b340738b8187f5f2ce186c71bb59eabd86c89516a5e8ddc04b991460cee2f",
    "numeric/cluster/profile.csv":
        "20818dd34c04c7cb1b6bf02c8e3dff0c071d49e465aa287f047733c81828565c",
    "numeric/cluster/stdout":
        "e8724ef7949841478f720ec99dac57b738c76c3901663035d4d2026280268baa",
    "numeric/evaluate_majority/majority_report.json":
        "04097f8d226c5f2dce1df3dab76da2962e064004b2ad5a8016d6c8a1a4ac3fc7",
    "numeric/evaluate_majority/stdout":
        "cb4834d33bea99858cb7d49f9c8fe055c53674fa9ea1776f5bb8aecce2e1a2bc",
    "numeric/evaluate_rules/rules_report.json":
        "92504ef631c3e893f5bedcd5d1a711ecd739198ee0385183ae6922fb55b54504",
    "numeric/evaluate_rules/stdout":
        "d663f9bcfa783a3df65ea72391c0f3b36d9230b9b450e1386b64e0a6c0d81b97",
    "numeric/evaluate_tree/stdout":
        "ebc7fe11e0215ac750810f4e1cf99c9c516e8b968eebc67317a5306a84971d9c",
    "numeric/evaluate_tree/tree_report.json":
        "b30101295beb66f3a01bf950d5583991e6f02aeb44532c90f0ed2341e54c0917",
    "numeric/rules/stdout":
        "ac62b5d9c87efdfea7f2be2e2f2a421b232df307b95041c1066557a99da96ab6",
    "numeric/rules_simplify/rules.json":
        "bd2bd52a6960017d8d125df50b9eaf0f8e0b0cfcfeae229090f27a69504a8444",
    "numeric/rules_simplify/stdout":
        "80d5c6a2d27b0d3f2e96f772c84a32dc5a61367c07f9a3c45103449864afc980",
    "numeric/train/model.json":
        "ecce72efc268383efde73575686601065d22da057c90cebec66d71ff7915374b",
    "numeric/train/stdout":
        "ebd0c8002c1dbf66eff165fe759879c2b1cff9da72afa362b4588b923b1494ee",
    "paper/checklist_all_n/stdout":
        "b2402ef71d9c48102271698261b3b6d620404de620726dd8ad2aa44083c960af",
    "paper/checklist_all_y/stdout":
        "666fae16f20a791618669705bbe2d125fc5903dc419e345c3a3c4a2cc880c6d8",
    "paper/checklist_mixed/stdout":
        "f2bdeceb40ad2c8b11671917f1a913c549fc8bbf1e60c30e7efef96f5b19aa70",
    "paper/cluster/cluster.json":
        "26ba3924d8447e0f7f6d6edcae58e786b14843ce1ad7257e268c34e7707d0f9d",
    "paper/cluster/profile.csv":
        "eef5eb544f05f2f30f3f2485ed260cbbbe389840816776a4eb407f5cb09adc26",
    "paper/cluster/stdout":
        "e716c4d8d233b60a3525548c5530d9fd6bf687e07dc7835e1be74242808c2dae",
    "paper/evaluate_majority/majority_report.json":
        "f1b987dcb60fd25a371e5c2e5e3d8bdafeb640b501a7d2f73d8cda265650b958",
    "paper/evaluate_majority/stdout":
        "60e628b3705a0d2fd1e10faba82da82f3d5edad4dca5e8a4baf41e850443dd40",
    "paper/evaluate_rules/rules_report.json":
        "e7ea00bcc9e9dbc8bb1bf9dbd384f8f2e41db3947edbc3f8cdf4df97ef493541",
    "paper/evaluate_rules/stdout":
        "d84e8c751a393f15a47653db8b5d95ef376f08b65f736c6f6acceeaf1e6d6656",
    "paper/evaluate_tree/stdout":
        "6fb72e746784ab7a4815c2758480bc935dc04bd1c0905ee32ec4577306acf82e",
    "paper/evaluate_tree/tree_report.json":
        "0cd1755691b38b375beb5cbb07c25791c4bf655dadf8208a99d84dfeff95d0bf",
    "paper/rules/stdout":
        "e70947545877444428f5816756980380d6e07063ca5cb69e94dbd3b5965c7572",
    "paper/rules_simplify/rules.json":
        "c2ca1040cdca7f49cf80b51d30e96e78689fdd32799ece88849f7efc532191cb",
    "paper/rules_simplify/stdout":
        "f59bf3e3782aaa21ed6e20f0fae6721779e013e43d4e9ab1b66678a054893794",
    "paper/train/model.json":
        "c43dd6d2b82e33dd30d5d13f4ece7c0a05f821c15fbb9052435d4cbed8e8bb41",
    "paper/train/stdout":
        "8de1644ad39cf36078197c9aeb4fcf6bd8b4fbe4a543bb688b8bf64bb7e80f05",
}


@pytest.mark.parametrize("cohort", sorted(COHORTS))
def test_cli_outputs_match_recorded_digests(cohort, tmp_path):
    expected = {k: v for k, v in GOLDEN.items() if k.startswith(f"{cohort}/")}
    assert run_cohort(cohort, tmp_path) == expected


def test_model_digest_matches_recorded():
    # every model and rule-set file learned from 20 random weighted datasets
    expected = "0d7b700e3ddad299764b457b70f5e0f3e0820aaefe70a1d282f20b4ab9655daf"
    assert digest(datasets=20) == expected


if __name__ == "__main__":
    print("GOLDEN = {")
    for cohort in sorted(COHORTS):
        with tempfile.TemporaryDirectory() as tmp:
            for key, digest in sorted(run_cohort(cohort, Path(tmp)).items()):
                print(f'    "{key}":\n        "{digest}",')
    print("}")
