"""Golden outputs of the command line.

Each row pins one command: its exit code and the sha256 of its stdout and
of its stderr.  The hashes were recorded with the dense elimination kernel
that the sparse one replaced, so a row that fails means the kernel, the
rank-based dimensions or a serializer changed an answer or a message byte.
``{rep2}`` stands for a rank-2 representation file written by the test.
"""

import hashlib
import json

import pytest

from algebroids.cli import main

EMPTY = hashlib.sha256(b"").hexdigest()

RANK2_REP = {
    "schema_version": "1",
    "rank": 2,
    "entries": {"a": [["1", "1"], ["0", "1"]], "b": [["1", "2"], ["0", "1"]]},
}

GOLDEN = [
    (('cohomology', '--complex', 'builtin:torus', '--rep', 'a=2,b=1'),
     0, '6905830eeb52dae0be8433c0a1cb567ab4e88dabe0868edb7f7200a5145a3ca6',
     EMPTY),
    (('cohomology', '--complex', 'builtin:torus', '--rep', 'a=1,b=1', '--json'),
     0, '11c411640654eb6f2be7aef618e2d4b5baaf0e37022fb5fcd3838d1bfa00bd39',
     EMPTY),
    (('cohomology', '--complex', 'builtin:torus', '--rep', 'a=-1,b=1', '--degree', '1'),
     0, 'ae7bb58d5dee6c1cb9f617c12308703a58426daf46aa22ed9bbb9727067bd6d2',
     EMPTY),
    (('cohomology', '--complex', 'builtin:torus', '--rep', 'a=1,b=1', '--degree', '0', '--json'),
     0, 'b33f89979a1f791de72d85bade39abdcd4173c3b04d1a5762d5080855ac1e02b',
     EMPTY),
    (('cohomology', '--complex', 'builtin:torus', '--rep', 'a=1,b=1', '--degree', '5'),
     0, 'b04a49f185f4c6e06f067f02bffbde3ab6b1729d07910e6f406dc41f5f35f054',
     EMPTY),
    (('cohomology', '--complex', 'builtin:torus', '--rep', 'a=1,b=1', '--degree', '-1'),
     1, EMPTY,
     'b07ccddda8bcfe551195b6011843a73dc4af1a5d77685092565cb61568310a49'),
    (('cohomology', '--complex', 'builtin:torus', '--rep', 'a=2,b=1', '--rank', '2', '--json'),
     1, EMPTY,
     'bdfcabbea1c6fe45bd0c77115a761a3dfb2b5dab93e701aa7f2ee56cb4c6d524'),
    (('cohomology', '--complex', 'builtin:torus4x4', '--rep', 'a=1,b=1'),
     0, '9089e827af5278c3af919b3bd3667d3b8e5957c336b04f00b97b976edcb46541',
     EMPTY),
    (('cohomology', '--complex', 'builtin:torus4x4', '--rep', 'a=3/2,b=1', '--json'),
     0, '0ef5bb388b385908b4f84c5ed5bbaeb4b63ee6a55d401049e2a76f5475d2b504',
     EMPTY),
    (('cohomology', '--complex', 'builtin:torus4x4', '--rep-file', '{rep2}', '--json'),
     0, 'df08eb54429fa0753cef4eb8bf8cb00b1a9356c3dc0e90cbc65c1b4fbe9c6b7e',
     EMPTY),
    (('cohomology', '--complex', 'builtin:torus4x4', '--rep-file', '{rep2}', '--degree', '2'),
     0, 'cb353104981d72e445306e000d8c1fd71cdc8f537b85e2a9750cc83008449d29',
     EMPTY),
    (('cohomology', '--complex', 'builtin:torus5x5', '--rep', 'a=-1,b=-1', '--json'),
     0, '0ef5bb388b385908b4f84c5ed5bbaeb4b63ee6a55d401049e2a76f5475d2b504',
     EMPTY),
    (('cohomology', '--complex', 'builtin:torus5x5', '--rep', 'a=1,b=1', '--degree', '1'),
     0, 'b08104fefa2a0e7dfa55bcbdb314207fdc9222773de8bf9065de213701bf5aae',
     EMPTY),
    (('cohomology', '--complex', 'builtin:circle5', '--rep', 'a=1'),
     0, 'f6355c7e8d77f6c10a25ecc7d3e467fc06be75e9930da6f33957ce30088f0957',
     EMPTY),
    (('cohomology', '--complex', 'builtin:circle5', '--rep', 'a=3/2', '--json'),
     0, 'ce6d3f95a69e8fd104da0405aff7566a78926982270a1059f3f9b26e90d19179',
     EMPTY),
    (('cohomology', '--complex', 'builtin:circle5', '--rep', 'a=-1', '--degree', '1'),
     0, 'ae7bb58d5dee6c1cb9f617c12308703a58426daf46aa22ed9bbb9727067bd6d2',
     EMPTY),
    (('char-classes', '--complex', 'builtin:torus', '--rep', 'a=2,b=3'),
     0, '12c7685385d2d34ba9fa06a869eeb293f033b15e833d6b105018131c660663d0',
     EMPTY),
    (('char-classes', '--complex', 'builtin:torus', '--rep', 'a=2,b=3', '--check-surjectivity'),
     0, 'b4ffd715258d36d3d341c12d249375413b9344bc6f99b0bfabe7e72fe5ba7cda',
     EMPTY),
    (('char-classes', '--complex', 'builtin:torus', '--rep', 'a=6,b=-4', '--check-surjectivity', '--json'),
     0, '03dc290bbc8d6fbc541b02c7bc3ec1ecbd4b521623b5b9415f62b5089c460923',
     EMPTY),
    (('char-classes', '--complex', 'builtin:torus', '--rep', 'a=2,b=1', '--check-surjectivity'),
     0, 'f81c6891dc31630331fb09e1361f5d41a5cef6e15ed7639550d603e318a9fc65',
     EMPTY),
    (('char-classes', '--complex', 'builtin:torus', '--rep', 'a=-3/5,b=10/7', '--json'),
     0, '808cfb60c3ec81a7f7602baaa6da9ffa784d769480e494d8d63d8c6b8537aea6',
     EMPTY),
    (('char-classes', '--complex', 'builtin:torus4x4', '--rep', 'a=2,b=3', '--json'),
     0, 'b55934c5c42a0e958eeb1306f60d836b5a7e0d7b939343db71fcf1f186006a23',
     EMPTY),
    (('char-classes', '--complex', 'builtin:torus4x4', '--rep', 'a=2,b=3', '--check-surjectivity'),
     1, EMPTY,
     'eeeab218410282c50472d25c7a4fb90218288ccef2b74cae7ed23ebbc4a0d375'),
    (('char-classes', '--complex', 'builtin:torus5x5', '--rep', 'a=12,b=-5/9'),
     0, 'fcc6f63b80708692dad97231c77d4f3a09dfed562a7babce63b0fa4605537d12',
     EMPTY),
    (('char-classes', '--complex', 'builtin:circle5', '--rep', 'a=-2'),
     0, 'f58af86b118a574882fdd324c9b4c3a3e7fdb5598b168bf9100c3423fb8d3ec9',
     EMPTY),
    (('char-classes', '--complex', 'builtin:circle5', '--rep', 'a=18', '--json'),
     0, 'e1646d42a68177bda50e160cc27a8aca8ec5bb4d0a78c2599e433a6b596e321c',
     EMPTY),
    (('surjectivity', '--complex', 'builtin:torus', '--rep', 'a=2,b=3'),
     0, '3122510c558004c94aa7faa9b621b4e3cfaef1fd71075e1a3420cc6ee9128874',
     EMPTY),
    (('surjectivity', '--complex', 'builtin:torus', '--rep', 'a=4,b=9/2', '--json'),
     0, 'dd3e4ad59522554fd401fea7ddead3529077c63eb8c672568728ffae7bb14347',
     EMPTY),
    (('surjectivity', '--complex', 'builtin:torus', '--rep', 'a=2,b=4'),
     0, '90768192fd26f68ddbfbc918683de0038e92f9c18a24a976c413f5965c09402f',
     EMPTY),
    (('surjectivity', '--complex', 'builtin:torus4x4', '--rep', 'a=2,b=3'),
     1, EMPTY,
     'eeeab218410282c50472d25c7a4fb90218288ccef2b74cae7ed23ebbc4a0d375'),
    (('surjectivity', '--complex', 'builtin:circle5', '--rep', 'a=2', '--json'),
     1, EMPTY,
     'eeeab218410282c50472d25c7a4fb90218288ccef2b74cae7ed23ebbc4a0d375'),
    (('chern-weil', '--complex', 'builtin:torus', '--rep', 'a=2,b=1', '--omega', 'fundamental'),
     0, 'd65397380e6e48f61e62f312cfadbdbfc7b8c77b0860eb9eb9354f9de984bde2',
     EMPTY),
    (('chern-weil', '--complex', 'builtin:torus', '--rep', 'a=1,b=1', '--omega', 'fundamental', '--max-k', '2', '--json'),
     0, 'b8cdcf54cc565960179372b37190739ef8cf68897f0c7a82854b67416caabe57',
     EMPTY),
    (('chern-weil', '--complex', 'builtin:torus4x4', '--rep', 'a=1,b=1', '--omega', 'fundamental'),
     0, '91bae046af516eed960d9681f92e6587765b290b8d8de196e4ce3a58240281c1',
     EMPTY),
    (('chern-weil', '--complex', 'builtin:torus5x5', '--rep', 'a=-1,b=1', '--omega', 'fundamental', '--json'),
     0, '9b49f4b6c8132fcba2408330feaa97fabfc3852d4473e7d3307e090929de3abc',
     EMPTY),
    (('chern-weil', '--complex', 'builtin:circle5', '--rep', 'a=1', '--omega', 'fundamental'),
     1, EMPTY,
     '16e98d2f7358bef09ce04b27bc635a0a12c856ded1e13f1b3c7ac191c38e4091'),
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv, code, out_sha, err_sha", GOLDEN,
                         ids=[" ".join(row[0]) for row in GOLDEN])
def test_cli_output_is_unchanged(argv, code, out_sha, err_sha, capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("ALGEBROIDS_VERBOSE", raising=False)
    rep2 = tmp_path / "rep2.json"
    rep2.write_text(json.dumps(RANK2_REP), encoding="utf-8")
    assert main([a.replace("{rep2}", str(rep2)) for a in argv]) == code
    captured = capsys.readouterr()
    assert (_sha(captured.out), _sha(captured.err)) == (out_sha, err_sha)
