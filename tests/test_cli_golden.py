"""Golden outputs of the command line.

Each row pins one command: its exit code and the sha256 of its stdout and
of its stderr.  The hashes were recorded with the dense elimination kernel
that the sparse one replaced, so a row that fails means the kernel, the
rank-based dimensions or a serializer changed an answer or a message byte.
``{rep2}`` stands for a rank-2 representation file written by the test.
The ``pullback`` rows print loop holonomies of a pulled-back system: they
read map files written by the test, ``{cover}`` (the 3x6 torus wrapping
twice around the 3x3 one) and ``{negate}`` ((row, col) -> (-col, -row) on
the 3x3 torus, which reverses edge orientations).  Their hashes were
recorded before ``holonomy`` moved onto the spanning-tree gauge pass; the
rank-2 text rows and the trivial-holonomy row were recorded before
``pullback`` took its document from ``jsonio.representation_to_json``.
The ``--json`` rows of ``char-classes --check-surjectivity`` and
``surjectivity`` on ``a=6/5,b=-35/3`` (four primes, so six cup pairs),
``a=-42/5,b=-42/5`` and ``a=1,b=66/7`` were recorded before one report
started to share each class, cup product and H^2 of a query.

The rank-2 and rank-3 ``chern-weil`` rows read checked-in inputs from
``tests/fixtures/chern_weil`` (``{fx}``): unipotent and diagonal
representations of the torus generators, conjugated to dense matrices, and
per grid and rank a 2-cocycle ``omega`` and, per representation, ``omega +
d(eta)`` for a dense 1-cochain ``eta``.  Their hashes were recorded before
the derived local systems of a query were shared, so these rows pin that
the sharing changes no byte.  ``rep2_trivial.json`` maps both generators to
the identity, so its power k = 1 has two invariant sections; its rows were
recorded while the algebroid still cached omega^k and the untwisted H^2k,
before the classes of one power were computed together.
"""

import hashlib
import json
from pathlib import Path

import pytest

from algebroids.cli import main

EMPTY = hashlib.sha256(b"").hexdigest()
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "chern_weil"

MAPS = {
    "cover": {
        "source": "builtin:torus3x6",
        "target": "builtin:torus3x3",
        "vertex_map": [3 * (v // 6) + (v % 6) % 3 for v in range(18)],
    },
    "negate": {
        "source": "builtin:torus3x3",
        "target": "builtin:torus3x3",
        "vertex_map": [3 * (-(v % 3) % 3) + (-(v // 3)) % 3 for v in range(9)],
    },
}

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
    (('char-classes', '--complex', 'builtin:torus', '--rep', 'a=6/5,b=-35/3', '--check-surjectivity', '--json'),
     0, '585a9e49a1ea84766a83b5b636814c33e1a974357483f54aa0d8b484cd0fd35d',
     EMPTY),
    (('surjectivity', '--complex', 'builtin:torus', '--rep', 'a=6/5,b=-35/3', '--json'),
     0, 'e31224cc27eb1103af0be1f904b25f2a418bf8dbf8b6d4ad6df5a4166919de0a',
     EMPTY),
    (('char-classes', '--complex', 'builtin:torus', '--rep', 'a=-42/5,b=-42/5', '--check-surjectivity', '--json'),
     0, 'fff2d6f0e461929c611ae74796cbf901fae540b1d0e8d57921adafc907897237',
     EMPTY),
    (('surjectivity', '--complex', 'builtin:torus', '--rep', 'a=-42/5,b=-42/5', '--json'),
     0, '6c4ce1db1f448139109d80974f8527f30dcc62b642152af4322d0c1ea210eb02',
     EMPTY),
    (('char-classes', '--complex', 'builtin:torus', '--rep', 'a=1,b=66/7', '--check-surjectivity', '--json'),
     0, 'e8ceb78b5f3e913a31806cbdf37d1fd01d2e1dcf009e74f41c2b4f6d4393f4ad',
     EMPTY),
    (('surjectivity', '--complex', 'builtin:torus', '--rep', 'a=1,b=66/7', '--json'),
     0, '6c4ce1db1f448139109d80974f8527f30dcc62b642152af4322d0c1ea210eb02',
     EMPTY),
    (('surjectivity', '--complex', 'builtin:torus4x4', '--rep', 'a=2,b=3'),
     1, EMPTY,
     'eeeab218410282c50472d25c7a4fb90218288ccef2b74cae7ed23ebbc4a0d375'),
    (('surjectivity', '--complex', 'builtin:circle5', '--rep', 'a=2', '--json'),
     1, EMPTY,
     'eeeab218410282c50472d25c7a4fb90218288ccef2b74cae7ed23ebbc4a0d375'),
    (('pullback', '--map', '{cover}', '--rep', 'a=2,b=3'),
     0, 'eb0bfcc5564626cd399245b0d73e993a2275534cad2d2410315259ea2502060d',
     EMPTY),
    (('pullback', '--map', '{negate}', '--rep', 'a=-3/5,b=10/7', '--json'),
     0, 'ec08c88a7822a096b930d3412ed1c649822ead2776d277dd4751f355f0de03e8',
     EMPTY),
    (('pullback', '--map', '{cover}', '--rep-file', '{rep2}', '--json'),
     0, '34e66acf10d45c85d99e121d76604935e481b4a6a2cb0f37930a9ff275c7a160',
     EMPTY),
    (('pullback', '--map', '{negate}', '--rep-file', '{rep2}', '--json'),
     0, '116466e53a8be61149451d09f84394f7b2af8d6c4d348b83f62a8c0db8d4f1e9',
     EMPTY),
    (('pullback', '--map', '{cover}', '--rep-file', '{rep2}'),
     0, '7a7b2259ef93adc970d3fec2fbfd0eff0d6637031d9d0120d57b7e3f27378299',
     EMPTY),
    (('pullback', '--map', '{negate}', '--rep-file', '{rep2}'),
     0, '29c5de157a58e026cb276eaa486ba1fcb1be736f69879f42bcdce6db158f4bee',
     EMPTY),
    (('pullback', '--map', '{cover}', '--rep', 'a=1,b=1'),
     0, '0d3f9bf591b61061563e5bfedd9d3743dc108367398ea2b7f51001ab5647224e',
     EMPTY),
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
    (('chern-weil', '--complex', 'builtin:torus3x3', '--rep-file', '{fx}/rep2_unipotent.json', '--omega', '{fx}/omega_torus3x3_rank2.json', '--min-k', '0', '--max-k', '2'),
     0, '0906224efdb6c09485f6b2c34472700388832367ce4ff742872a143cd45fdd66',
     EMPTY),
    (('chern-weil', '--complex', 'builtin:torus3x3', '--rep-file', '{fx}/rep2_unipotent.json', '--omega', '{fx}/omega_torus3x3_rank2.json', '--min-k', '0', '--max-k', '2', '--json'),
     0, '7bca6fcfc807f4b531127fe3250ad0637285dd17416f4d7fe9ca2f017be70a72',
     EMPTY),
    (('chern-weil', '--complex', 'builtin:torus3x3', '--rep-file', '{fx}/rep2_unipotent.json', '--omega', '{fx}/omega_deta_torus3x3_rep2_unipotent.json', '--min-k', '0', '--max-k', '2'),
     0, '0906224efdb6c09485f6b2c34472700388832367ce4ff742872a143cd45fdd66',
     EMPTY),
    (('chern-weil', '--complex', 'builtin:torus3x3', '--rep-file', '{fx}/rep2_unipotent.json', '--omega', '{fx}/omega_deta_torus3x3_rep2_unipotent.json', '--min-k', '0', '--max-k', '2', '--json'),
     0, '7bca6fcfc807f4b531127fe3250ad0637285dd17416f4d7fe9ca2f017be70a72',
     EMPTY),
    (('chern-weil', '--complex', 'builtin:torus3x3', '--rep-file', '{fx}/rep2_diagonal.json', '--omega', '{fx}/omega_torus3x3_rank2.json', '--min-k', '0', '--max-k', '2'),
     0, '29b38b75ec571c2e00bfb0e30ddada03cbf9a1592a44bb5e9d8af3e768393cee',
     EMPTY),
    (('chern-weil', '--complex', 'builtin:torus3x3', '--rep-file', '{fx}/rep2_diagonal.json', '--omega', '{fx}/omega_torus3x3_rank2.json', '--min-k', '0', '--max-k', '2', '--json'),
     0, '34bb7cff9449035cb0f694422f4c809f17bf594fa067e66649b83508836c7647',
     EMPTY),
    (('chern-weil', '--complex', 'builtin:torus3x3', '--rep-file', '{fx}/rep2_diagonal.json', '--omega', '{fx}/omega_deta_torus3x3_rep2_diagonal.json', '--min-k', '0', '--max-k', '2'),
     0, '29b38b75ec571c2e00bfb0e30ddada03cbf9a1592a44bb5e9d8af3e768393cee',
     EMPTY),
    (('chern-weil', '--complex', 'builtin:torus3x3', '--rep-file', '{fx}/rep2_diagonal.json', '--omega', '{fx}/omega_deta_torus3x3_rep2_diagonal.json', '--min-k', '0', '--max-k', '2', '--json'),
     0, '34bb7cff9449035cb0f694422f4c809f17bf594fa067e66649b83508836c7647',
     EMPTY),
    (('chern-weil', '--complex', 'builtin:torus3x3', '--rep-file', '{fx}/rep3_unipotent.json', '--omega', '{fx}/omega_torus3x3_rank3.json', '--min-k', '0', '--max-k', '2'),
     0, 'd10023f2f84d20ff30dadffec6b42e2b61e7b9f5b4a8e7646e0b82e701411bd5',
     EMPTY),
    (('chern-weil', '--complex', 'builtin:torus3x3', '--rep-file', '{fx}/rep3_unipotent.json', '--omega', '{fx}/omega_torus3x3_rank3.json', '--min-k', '0', '--max-k', '2', '--json'),
     0, 'cf90237fef9e7ced60eecdd4bd5a4918e57d3045e80104923003e0ca2957fa3f',
     EMPTY),
    (('chern-weil', '--complex', 'builtin:torus3x3', '--rep-file', '{fx}/rep3_unipotent.json', '--omega', '{fx}/omega_deta_torus3x3_rep3_unipotent.json', '--min-k', '0', '--max-k', '2'),
     0, 'd10023f2f84d20ff30dadffec6b42e2b61e7b9f5b4a8e7646e0b82e701411bd5',
     EMPTY),
    (('chern-weil', '--complex', 'builtin:torus3x3', '--rep-file', '{fx}/rep3_unipotent.json', '--omega', '{fx}/omega_deta_torus3x3_rep3_unipotent.json', '--min-k', '0', '--max-k', '2', '--json'),
     0, 'cf90237fef9e7ced60eecdd4bd5a4918e57d3045e80104923003e0ca2957fa3f',
     EMPTY),
    (('chern-weil', '--complex', 'builtin:torus3x3', '--rep-file', '{fx}/rep3_diagonal.json', '--omega', '{fx}/omega_torus3x3_rank3.json', '--min-k', '0', '--max-k', '2'),
     0, '11d84bfe791953dd6f70f52f2b28dd424e59974224f41029824b137b22441ce0',
     EMPTY),
    (('chern-weil', '--complex', 'builtin:torus3x3', '--rep-file', '{fx}/rep3_diagonal.json', '--omega', '{fx}/omega_torus3x3_rank3.json', '--min-k', '0', '--max-k', '2', '--json'),
     0, '028d9dad3831ee55e7e6ecc6c615e46d7f18cb1237985f32f2e4a4931a194add',
     EMPTY),
    (('chern-weil', '--complex', 'builtin:torus3x3', '--rep-file', '{fx}/rep3_diagonal.json', '--omega', '{fx}/omega_deta_torus3x3_rep3_diagonal.json', '--min-k', '0', '--max-k', '2'),
     0, '11d84bfe791953dd6f70f52f2b28dd424e59974224f41029824b137b22441ce0',
     EMPTY),
    (('chern-weil', '--complex', 'builtin:torus3x3', '--rep-file', '{fx}/rep3_diagonal.json', '--omega', '{fx}/omega_deta_torus3x3_rep3_diagonal.json', '--min-k', '0', '--max-k', '2', '--json'),
     0, '028d9dad3831ee55e7e6ecc6c615e46d7f18cb1237985f32f2e4a4931a194add',
     EMPTY),
    (('chern-weil', '--complex', 'builtin:torus4x4', '--rep-file', '{fx}/rep2_unipotent.json', '--omega', '{fx}/omega_torus4x4_rank2.json', '--min-k', '0', '--max-k', '2'),
     0, '53a35e8bd7a3a439be3b93369efa7c33f1b50330fa2cd5a94f609f7943d0f108',
     EMPTY),
    (('chern-weil', '--complex', 'builtin:torus4x4', '--rep-file', '{fx}/rep2_unipotent.json', '--omega', '{fx}/omega_torus4x4_rank2.json', '--min-k', '0', '--max-k', '2', '--json'),
     0, '3c7bb8a730060c2bcf50feb551bcef3eb51ae8d6d7667edebad00d2d34863975',
     EMPTY),
    (('chern-weil', '--complex', 'builtin:torus4x4', '--rep-file', '{fx}/rep2_unipotent.json', '--omega', '{fx}/omega_deta_torus4x4_rep2_unipotent.json', '--min-k', '0', '--max-k', '2'),
     0, '53a35e8bd7a3a439be3b93369efa7c33f1b50330fa2cd5a94f609f7943d0f108',
     EMPTY),
    (('chern-weil', '--complex', 'builtin:torus4x4', '--rep-file', '{fx}/rep2_unipotent.json', '--omega', '{fx}/omega_deta_torus4x4_rep2_unipotent.json', '--min-k', '0', '--max-k', '2', '--json'),
     0, '3c7bb8a730060c2bcf50feb551bcef3eb51ae8d6d7667edebad00d2d34863975',
     EMPTY),
    (('chern-weil', '--complex', 'builtin:torus4x4', '--rep-file', '{fx}/rep2_diagonal.json', '--omega', '{fx}/omega_torus4x4_rank2.json', '--min-k', '0', '--max-k', '2'),
     0, '29b38b75ec571c2e00bfb0e30ddada03cbf9a1592a44bb5e9d8af3e768393cee',
     EMPTY),
    (('chern-weil', '--complex', 'builtin:torus4x4', '--rep-file', '{fx}/rep2_diagonal.json', '--omega', '{fx}/omega_torus4x4_rank2.json', '--min-k', '0', '--max-k', '2', '--json'),
     0, '34bb7cff9449035cb0f694422f4c809f17bf594fa067e66649b83508836c7647',
     EMPTY),
    (('chern-weil', '--complex', 'builtin:torus4x4', '--rep-file', '{fx}/rep2_diagonal.json', '--omega', '{fx}/omega_deta_torus4x4_rep2_diagonal.json', '--min-k', '0', '--max-k', '2'),
     0, '29b38b75ec571c2e00bfb0e30ddada03cbf9a1592a44bb5e9d8af3e768393cee',
     EMPTY),
    (('chern-weil', '--complex', 'builtin:torus4x4', '--rep-file', '{fx}/rep2_diagonal.json', '--omega', '{fx}/omega_deta_torus4x4_rep2_diagonal.json', '--min-k', '0', '--max-k', '2', '--json'),
     0, '34bb7cff9449035cb0f694422f4c809f17bf594fa067e66649b83508836c7647',
     EMPTY),
    (('chern-weil', '--complex', 'builtin:torus4x4', '--rep-file', '{fx}/rep3_unipotent.json', '--omega', '{fx}/omega_torus4x4_rank3.json', '--min-k', '0', '--max-k', '2'),
     0, '2908f2df6362604909f2bfaa539101bdd56057e6926b7292c254925d2ff0e6ca',
     EMPTY),
    (('chern-weil', '--complex', 'builtin:torus4x4', '--rep-file', '{fx}/rep3_unipotent.json', '--omega', '{fx}/omega_torus4x4_rank3.json', '--min-k', '0', '--max-k', '2', '--json'),
     0, 'd79df722ac3d0f637118162667c14c3522194a9829490d518bda912598e9b4d1',
     EMPTY),
    (('chern-weil', '--complex', 'builtin:torus4x4', '--rep-file', '{fx}/rep3_unipotent.json', '--omega', '{fx}/omega_deta_torus4x4_rep3_unipotent.json', '--min-k', '0', '--max-k', '2'),
     0, '2908f2df6362604909f2bfaa539101bdd56057e6926b7292c254925d2ff0e6ca',
     EMPTY),
    (('chern-weil', '--complex', 'builtin:torus4x4', '--rep-file', '{fx}/rep3_unipotent.json', '--omega', '{fx}/omega_deta_torus4x4_rep3_unipotent.json', '--min-k', '0', '--max-k', '2', '--json'),
     0, 'd79df722ac3d0f637118162667c14c3522194a9829490d518bda912598e9b4d1',
     EMPTY),
    (('chern-weil', '--complex', 'builtin:torus4x4', '--rep-file', '{fx}/rep3_diagonal.json', '--omega', '{fx}/omega_torus4x4_rank3.json', '--min-k', '0', '--max-k', '2'),
     0, '87fc1bbf53ff808e7b656891aed2f5bb0d220673465019d347d6832c46a77110',
     EMPTY),
    (('chern-weil', '--complex', 'builtin:torus4x4', '--rep-file', '{fx}/rep3_diagonal.json', '--omega', '{fx}/omega_torus4x4_rank3.json', '--min-k', '0', '--max-k', '2', '--json'),
     0, '96c05e9306c4d47ee73bf338eaeb3bf6e9a1c915c32f7ad5fe0507ae90da1c05',
     EMPTY),
    (('chern-weil', '--complex', 'builtin:torus4x4', '--rep-file', '{fx}/rep3_diagonal.json', '--omega', '{fx}/omega_deta_torus4x4_rep3_diagonal.json', '--min-k', '0', '--max-k', '2'),
     0, '87fc1bbf53ff808e7b656891aed2f5bb0d220673465019d347d6832c46a77110',
     EMPTY),
    (('chern-weil', '--complex', 'builtin:torus4x4', '--rep-file', '{fx}/rep3_diagonal.json', '--omega', '{fx}/omega_deta_torus4x4_rep3_diagonal.json', '--min-k', '0', '--max-k', '2', '--json'),
     0, '96c05e9306c4d47ee73bf338eaeb3bf6e9a1c915c32f7ad5fe0507ae90da1c05',
     EMPTY),
    (('chern-weil', '--complex', 'builtin:torus3x3', '--rep-file', '{fx}/rep2_trivial.json', '--omega', '{fx}/omega_torus3x3_rank2.json', '--min-k', '0', '--max-k', '2'),
     0, '77507a43b3ae01ff991ad81f16b2ac13ae2a4d2e3b2da56c54e75ee2bfdc91ae',
     EMPTY),
    (('chern-weil', '--complex', 'builtin:torus3x3', '--rep-file', '{fx}/rep2_trivial.json', '--omega', '{fx}/omega_torus3x3_rank2.json', '--min-k', '0', '--max-k', '2', '--json'),
     0, 'b636c39b4b1cc02caac044019ba7f35356dec25abc93313a95f9d126c614800c',
     EMPTY),
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv, code, out_sha, err_sha", GOLDEN,
                         ids=[" ".join(row[0]) for row in GOLDEN])
def test_cli_output_is_unchanged(argv, code, out_sha, err_sha, capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("ALGEBROIDS_VERBOSE", raising=False)
    rep2 = tmp_path / "rep2.json"
    rep2.write_text(json.dumps(RANK2_REP), encoding="utf-8")
    paths = {"{rep2}": str(rep2), "{fx}": str(FIXTURES)}
    for name, doc in MAPS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths["{%s}" % name] = str(path)
    for key, value in paths.items():
        argv = [a.replace(key, value) for a in argv]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (_sha(captured.out), _sha(captured.err)) == (out_sha, err_sha)
