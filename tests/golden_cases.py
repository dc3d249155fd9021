"""The golden corpus: every subcommand and check kind in each outcome it can
reach, as argv, the files it reads, and the sha256 of what it prints.

Each case stores the digest of its exit code, stdout and stderr, so a change
to any byte of a report, an error line or an exit code names its case.  The
corpus avoids text that argparse or the JSON decoder words differently across
Python versions.  It needs nothing beyond the standard library: `test_golden.py`
runs it in process under pytest, and `golden_replay.py` runs each case as a CLI
process on any interpreter.
"""

import hashlib
import json

DISCRETE = {"chain": 1, "points": ["a", "b"], "opens": [[0, 0], [0, 1], [1, 0], [1, 1]]}
INDISCRETE = {"chain": 1, "points": ["a", "b"], "opens": [[0, 0], [1, 1]]}
NOT_TOPOLOGY = {"chain": 1, "points": ["a", "b"], "opens": [[0, 0], [0, 1], [1, 0]]}
HALF = {"chain": 2, "points": ["x"], "subbase": [[1]]}
CHAIN_TWO = {"chain": 2, "points": ["x"], "opens": [[0], [2]]}
FUZZY_HAUSDORFF = {
    "chain": 2,
    "points": ["a", "b", "c"],
    "opens": [
        [0, 0, 0], [0, 0, 2], [0, 2, 0], [0, 2, 2], [1, 0, 0], [1, 0, 2],
        [1, 2, 0], [1, 2, 2], [2, 0, 0], [2, 0, 2], [2, 2, 0], [2, 2, 2],
    ],
}
NOT_ZERODIM = {"chain": 2, "points": ["a", "b"], "opens": [[0, 0], [0, 2], [2, 2]]}
LARGE = {"chain": 2, "points": ["x"], "subbase": [[1], [2]]}
NOT_LARGE = {"chain": 4, "points": ["x", "y"], "subbase": [[1, 0], [2, 0], [4, 0]]}
COVERABLE = {"chain": 2, "points": ["a", "b", "c"], "family": [[1, 1, 0], [2, 0, 1], [0, 2, 2], [1, 1, 1]]}
UNCOVERABLE = {"chain": 2, "points": ["a", "b"], "family": [[0, 2], [0, 1]]}
OFF_CHAIN = {"chain": 2, "points": ["a"], "family": [[3]]}
METRIC = {"chain": 2, "points": ["a", "b"], "dist": [[0, 1], [1, 0]]}
METRIC_BALLS = {
    "chain": 3,
    "points": ["a", "b", "c"],
    "dist": [[0, "1/2", "3/2"], ["1/2", 0, 1], ["3/2", 1, 0]],
    "centers": [["a", 3], ["c", 1]],
    "radii": ["3/2", 1],
}
ASYMMETRIC = {"chain": 2, "points": ["a", "b"], "dist": [[0, 1], [2, 0]]}
CONTINUOUS = {"domain": "discrete.json", "codomain": INDISCRETE, "map": [0, 0]}
DISCONTINUOUS = {"domain": INDISCRETE, "codomain": "discrete.json", "map": [0, 1]}
BAD_INDEX = {"domain": INDISCRETE, "codomain": INDISCRETE, "map": [0, 2]}
INVALID_DOMAIN = {"domain": "not-topology.json", "codomain": INDISCRETE, "map": [0, 0]}

FILES = {
    "discrete.json": DISCRETE,
    "indiscrete.json": INDISCRETE,
    "not-topology.json": NOT_TOPOLOGY,
    "half.json": HALF,
    "half-capped.json": {**HALF, "caps": {"max_opens": 2}},
    "half-roomy.json": {**HALF, "caps": {"max_opens": 5}},
    "off-chain.json": {"chain": 2, "points": ["x"], "subbase": [[3]]},
    "chain-two.json": CHAIN_TWO,
    "fuzzy-hausdorff.json": FUZZY_HAUSDORFF,
    "not-zerodim.json": NOT_ZERODIM,
    "large.json": LARGE,
    "not-large.json": NOT_LARGE,
    "no-points.json": {"chain": 2, "subbase": [[1]]},
    "coverable.json": COVERABLE,
    "uncoverable.json": UNCOVERABLE,
    "off-chain-family.json": OFF_CHAIN,
    "metric.json": METRIC,
    "metric-balls.json": METRIC_BALLS,
    "asymmetric.json": ASYMMETRIC,
    "continuous.json": CONTINUOUS,
    "discontinuous.json": DISCONTINUOUS,
    "bad-index.json": BAD_INDEX,
    "invalid-domain.json": INVALID_DOMAIN,
}

# case name -> (argv, sha256 of [exit code, stdout, stderr] as JSON)
GOLDEN = {
    "gen": (
        ["gen", "half.json"],
        "3feb625ed3e28cf93cb72f0e2697567ae9309d24177b2732fc781b5d43760cda",
    ),
    "gen document cap": (
        ["gen", "half-capped.json"],
        "c401bc6ee4897593ecc3f19dc5b94fe717f774f6839b4f438592af98fefaa7a7",
    ),
    "gen flag cap": (
        ["gen", "--max-opens", "2", "half.json"],
        "c401bc6ee4897593ecc3f19dc5b94fe717f774f6839b4f438592af98fefaa7a7",
    ),
    "gen flag over document cap": (
        ["gen", "--max-opens", "5", "half-capped.json"],
        "16de6455b748a32bf62687bdbb2cde3ab2ce8f8e940d18adccf97c115d26a2e8",
    ),
    "gen document cap kept": (
        ["gen", "half-roomy.json"],
        "922526b3338cc06dafe59a4b99b208d83786ea8003259cbb7f74351db6a5b4af",
    ),
    "gen input error": (
        ["gen", "off-chain.json"],
        "3d8472693ac1df54a2075c06b7f6facb16eada1640f3729b4f9c3de73cb2dd87",
    ),
    "check topology true": (
        ["check", "topology", "discrete.json"],
        "2017b9febeaebb77c50025b7cc92e943b6b86949c205455bc49feee0bc07a8fd",
    ),
    "check topology false": (
        ["check", "topology", "not-topology.json"],
        "68b58800f311144bebbe291dad2138a657070c0cd9cd3966e4029e1ca0b35c8c",
    ),
    "check topology without opens": (
        ["check", "topology", "half.json"],
        "ff32c24351bee3fd482399860226d66e325c4c22c8496f338811723ad7361fd7",
    ),
    "check topology refuses --max-opens": (
        ["check", "topology", "--max-opens", "1", "discrete.json"],
        "c66b0e3e0467f627261616c513ad355aa02d8826b828eb6d331d210c43fb8455",
    ),
    "check compact true": (
        ["check", "compact", "discrete.json"],
        "171bb63fc7d0555a951e14c5e4ae6faa6dd7820d1fc9ffe0fb24bd87f6c3c84c",
    ),
    "check compact oracle": (
        ["check", "compact", "--oracle", "discrete.json"],
        "49bb85e43c4ec661be64be0bd8ae0ff1326513c8aa88f1a80666c7589fa59633",
    ),
    "check compact oracle cap": (
        ["check", "compact", "--oracle", "--max-opens", "2", "discrete.json"],
        "c611ec2fed59f59fb6d1cc9667f166b459ec2e0b0801c3cdb75ad5b293b5f35c",
    ),
    "check compact invalid topology": (
        ["check", "compact", "not-topology.json"],
        "acc51cd08af16330a69d682ae285ef4c0efff0ceb0a3149ea396b63e2882bfcf",
    ),
    "check compact without opens": (
        ["check", "compact", "half.json"],
        "854c8f369e41d46904fadb3199072132db2edf39a64729e980fbb1dbec54e989",
    ),
    "check strong-compact true": (
        ["check", "strong-compact", "indiscrete.json"],
        "ad60e89d30fe79ed1dacd9b998b1bf45a8ccc002618d2e70bc4f9fc71ac9c193",
    ),
    "check strong-compact oracle": (
        ["check", "strong-compact", "--oracle", "fuzzy-hausdorff.json"],
        "74924fa3d70f7d76582f4cd353ba8992045bdd03176c019e5bf21914e0c6b6a3",
    ),
    "check strong-compact oracle cap": (
        ["check", "strong-compact", "--oracle", "--max-opens", "11", "fuzzy-hausdorff.json"],
        "79480ec9ef27c337547bc12443b78c0d5025ea85fc69ef7e3c9e7d49ee7210f0",
    ),
    "check strong-compact invalid topology": (
        ["check", "strong-compact", "not-topology.json"],
        "2e087c99e6525ae2dcc0598a092960152068717f6d702f41737bc6e4ab9778da",
    ),
    "check hausdorff true": (
        ["check", "hausdorff", "fuzzy-hausdorff.json"],
        "ac3c82c05f2a2e4dbb619a2b7bfdcc861335aabe40f58987dd551c483855fe94",
    ),
    "check hausdorff false": (
        ["check", "hausdorff", "indiscrete.json"],
        "ebd88306f74e256236c92094c4dd6356f6a369c3ff73f39a96ac0fd059bb7d19",
    ),
    "check hausdorff refuses --oracle": (
        ["check", "hausdorff", "--oracle", "discrete.json"],
        "0940bd1f1f72cd3dce2e6264cb6b726fcf7aecb073dcc7eac75e8a8b14d20da3",
    ),
    "check hausdorff invalid topology": (
        ["check", "hausdorff", "not-topology.json"],
        "40b956c8daefd49dbf78e723e89f0eb8067387c4bc4e88baf76fab94779595d4",
    ),
    "check zerodim true": (
        ["check", "zerodim", "discrete.json"],
        "0ef971f890b6d46680811ba115a46403e6ca73f0a298d54503f5e42fdfef8e60",
    ),
    "check zerodim false": (
        ["check", "zerodim", "not-zerodim.json"],
        "bc92ec9362b4873ac4549fdf29a197503546fc3b0f50357806bd1f6a9d862439",
    ),
    "check zerodim without opens": (
        ["check", "zerodim", "half.json"],
        "0482a69d92865d33e0d9ae2db84b7560ed752638ddbd628ab683617c1fc81bfe",
    ),
    "check stone true": (
        ["check", "stone", "discrete.json"],
        "e0657f4f4ce6f983a9ff549f0b8c59a179d0f844875e81c6d7542f8ad74123f3",
    ),
    "check stone false": (
        ["check", "stone", "indiscrete.json"],
        "69327a01ea8da55ed4bdcc483a7cf7a3af3ba08d7a0bc0cb07e153522735a811",
    ),
    "check stone not zerodim": (
        ["check", "stone", "not-zerodim.json"],
        "4e19f9377d8a28d200c1d7139e5e056ff31422861b55ee5c363d7b5274418fd5",
    ),
    "check stone refuses --oracle": (
        ["check", "stone", "--oracle", "discrete.json"],
        "b373fbd1a86336a969305a79829d7b207a503a6d910a0f4bb22a4302839f4c30",
    ),
    "check large-subbase true": (
        ["check", "large-subbase", "large.json"],
        "8fb287f25c53566bdf96d96a6e089c3acd8ce88342836a6be4a33465817d6103",
    ),
    "check large-subbase false": (
        ["check", "large-subbase", "not-large.json"],
        "50778f505c47fabba3d0f8b9388e5a1d7be78856168fcf9c8f1aeee65e6214de",
    ),
    "check large-subbase on opens": (
        ["check", "large-subbase", "discrete.json"],
        "8fb287f25c53566bdf96d96a6e089c3acd8ce88342836a6be4a33465817d6103",
    ),
    "check large-subbase input error": (
        ["check", "large-subbase", "no-points.json"],
        "e38e663442387f00361265269478fca6275348eca9e7c37173b795fd0d52d386",
    ),
    "product": (
        ["product", "discrete.json", "indiscrete.json"],
        "94e52bfa0f862e0c7998e7e841daa2addd6c0d6c0b467fce2dfa01e216530dcb",
    ),
    "product of one": (
        ["product", "chain-two.json"],
        "a102407dbfd1df13570d32df49e8c4c9d3089439d3e423ee32e2d9e4ed233a88",
    ),
    "product subbase only": (
        ["product", "--subbase-only", "discrete.json", "discrete.json"],
        "430a31edcdb99b1bf259625090852a54369ad0e9a65b6b730bfab7fecae98f9f",
    ),
    "product cap": (
        ["product", "--max-opens", "1", "discrete.json", "discrete.json"],
        "6f228bc5f96429983a68a7324c3c7d5e53194b16902bd4afed37a4e7b0c2c4c9",
    ),
    "product chain mismatch": (
        ["product", "discrete.json", "chain-two.json"],
        "cb727e048ec6c9ad5740b5e932268679108393ab6b3bb91815e57e56ceba2951",
    ),
    "product without opens": (
        ["product", "half.json"],
        "4c64617d7ace3872e2fb3410bcb5170fea5fa0335c2f7f0b51686c3e70620e14",
    ),
    "product invalid topology": (
        ["product", "not-topology.json"],
        "8b7a56d45b0a94cab0e891cf225e451efad137a2e747f73854d171950b2be1d8",
    ),
    "mincover feasible": (
        ["mincover", "coverable.json"],
        "76532d040cf8574bc8da9f5768139afdabcc49034d4e53db27d06466f812feb5",
    ),
    "mincover infeasible": (
        ["mincover", "uncoverable.json"],
        "5afdc86ff74e6127e642a2ffed647b1206c0387e0069c483bbce2c95acdac12a",
    ),
    "mincover cap": (
        ["mincover", "--max-nodes", "2", "coverable.json"],
        "5255b858552b03f223073183f12a072db9e099ce3af7ac6e93b344a553237ac2",
    ),
    "mincover input error": (
        ["mincover", "off-chain-family.json"],
        "3d8472693ac1df54a2075c06b7f6facb16eada1640f3729b4f9c3de73cb2dd87",
    ),
    "subcover feasible": (
        ["subcover", "coverable.json"],
        "53f328e06e510099a220c32dc04bba0aa6d9bebcc66836154c5663f1d015b96e",
    ),
    "subcover infeasible": (
        ["subcover", "uncoverable.json"],
        "5afdc86ff74e6127e642a2ffed647b1206c0387e0069c483bbce2c95acdac12a",
    ),
    "subcover cap": (
        ["subcover", "--max-nodes", "1", "coverable.json"],
        "3f349ddb821dba5bd0cce62f9dd1e79cd4a6c1230d7a7904bf9bdf1a15fdb6bb",
    ),
    "subcover input error": (
        ["subcover", "half.json"],
        "2cc624e0956dbd191b020398ff37fea60dcf0bd45f623669b86c5858e2f01f88",
    ),
    "metric": (
        ["metric", "metric.json"],
        "e88a6cf974cf65d4cf7ef26872cd115ade7c531a999578b17ce0deb9dd672297",
    ),
    "metric centers and radii": (
        ["metric", "metric-balls.json"],
        "10f74ededbcae48ebfb008298583cf993669d173b9aba995690e7cc8166dbfe0",
    ),
    "metric subbase only": (
        ["metric", "--subbase-only", "metric-balls.json"],
        "9fa80c6269282d6d8049102e2ee0c90f0ecf0e7b6bf5c2acb2e96ccb65f47607",
    ),
    "metric cap": (
        ["metric", "--max-opens", "2", "metric.json"],
        "c401bc6ee4897593ecc3f19dc5b94fe717f774f6839b4f438592af98fefaa7a7",
    ),
    "metric input error": (
        ["metric", "asymmetric.json"],
        "3009febb353428fb89edd8ae46cb216b48e672a778fb897ff4d893ae692afbac",
    ),
    "continuity true": (
        ["continuity", "continuous.json"],
        "4fdb0674ca6448da94f3b6e1b435f89d72fd8f226419549209d4875f549440b9",
    ),
    "continuity false": (
        ["continuity", "discontinuous.json"],
        "f481bb2fc8a6ea5e53d136ac0a8bbe85a3324719d953b01e130a8754a4167389",
    ),
    "continuity input error": (
        ["continuity", "bad-index.json"],
        "4fb22cd69b5f0d83b5e9cceea4e8ddcabfc977131837d5751737fbf230f6c166",
    ),
    "continuity invalid domain": (
        ["continuity", "invalid-domain.json"],
        "4eb329ffbac538ca0f235f6e223c25aa6437c7f663aabd644609757fbd228b12",
    ),
    "verify algebra": (
        ["verify", "algebra", "--seed", "3", "--cases", "3"],
        "27edee457d551f0846779f5b40db11a81252e3b7e545627ed22ab521221c642f",
    ),
    "verify alexander-claims": (
        ["verify", "alexander-claims", "--seed", "3", "--cases", "3"],
        "87cbf00ed10d8df36745146bcd1ef755c11d5ee95b7fdd6bd5db2cca83d3210b",
    ),
    "verify continuity": (
        ["verify", "continuity", "--seed", "3", "--cases", "3"],
        "688ddf252e225678495e8c8f84508a7d60b18d34db813791cb23acd2270a6eae",
    ),
    "verify generation": (
        ["verify", "generation", "--seed", "3", "--cases", "3"],
        "cded8822260d1b99e0353dea91d9cdb3e9702ad61c40bf7b10b2a5f7263c41f9",
    ),
    "verify hausdorff-product": (
        ["verify", "hausdorff-product", "--seed", "3", "--cases", "3"],
        "25b0ac183bf82813caa7f7fa9c39b1047db86251a0d1e997604a7ec340ab8285",
    ),
    "verify lemma1": (
        ["verify", "lemma1", "--seed", "3", "--cases", "3"],
        "9d356dadc5feb83e4b4d591957b4271dd06d0d0c00cdab60bd5aa32fd5bed2ff",
    ),
    "verify stone-product": (
        ["verify", "stone-product", "--seed", "3", "--cases", "3"],
        "0d3e573323163357ab8659d4054901ca883199fad7170bdd86038b536ec51690",
    ),
    "verify tychonoff": (
        ["verify", "tychonoff", "--seed", "3", "--cases", "3"],
        "fb91245f022316854e4825e257c7f0104e7b6346ed7fcd3f4356ad2ba32bd437",
    ),
    "verify zerodim-product": (
        ["verify", "zerodim-product", "--seed", "3", "--cases", "3"],
        "8a29c7b3393acfceab2c39f6e74d068a0f7b8374b291301015cefa0c3f0c7ef9",
    ),
    "verify unknown suite": (
        ["verify", "nonsense"],
        "f8e042f6f460c90331e03ed94c4a50e1aa27831fc96a88c6f16bb13946e8c906",
    ),
}


def digest(code, out, err):
    return hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()
