"""The SVG bytes of seeded figure specs, pinned by SHA-256.

Each figure is drawn for ten specs whose operands are texts of the
``figure`` grammar (a decimal or ``n/d``), read as ``mesolabe figure``
reads them.  The digests pin every byte of those drawings beyond the
fixed goldens of ``tests/golden``:

- figures 1-3: three unequal ``n/d`` edges;
- figure 4: diameters from 10^-6 to 10^6;
- figure 5: t near 0 and near 1, and decimal diameters AC;
- figures 6-7: a equal to b, a close to b, and a far below b.

Figure 4 is similar at every diameter, so all but its smallest diameter
draw the same bytes.
"""

import hashlib
import random

import pytest

from mesolabe.cli import _parse_rational
from mesolabe.figures import FigureSpec, render


def _ratio(rng, top):
    return f"{rng.randint(1, top)}/{rng.randint(1, top)}"


def _edges(rng):
    while True:
        edges = [_ratio(rng, 40) for _ in range(3)]
        if len({_parse_rational(e) for e in edges}) == 3:
            return dict(zip(("da", "db", "dc"), edges))


def _specs(figure_id):
    """Ten operand dicts for ``figure_id``, the same on every run."""
    rng = random.Random(f"figure-bytes:{figure_id}")
    if figure_id <= 3:
        return [_edges(rng) for _ in range(10)]
    if figure_id == 4:
        fixed = ["0.000001", "0.0000375", "0.05", "2", "31.25", "4096", "999999.5", "1000000"]
        return [{"diameter": d} for d in fixed + [_ratio(rng, 10**6) for _ in range(2)]]
    if figure_id == 5:
        ts = ["1/1000000", "1/1000", "3/97", "1/2", "96/97", "999/1000", "999999/1000000"]
        acs = ["2.5", "0.001", "123.456", "7/3", "1000"]
        return [{"ac": rng.choice(acs), "t": t} for t in ts] + [
            {"ac": f"{rng.randint(1, 99)}.{rng.randint(0, 99):02d}",
             "t": f"{n}/{rng.randint(n + 1, 300)}"}
            for n in (rng.randint(1, 150) for _ in range(3))
        ]
    pairs = [("3", "3"), ("7/2", "7/2"), ("0.125", "1/8"), ("999999/1000000", "1"),
             ("1", "1000001/1000000"), ("2.999", "3"), ("1/1000", "1000")]
    for _ in range(3):
        a, b = sorted(rng.sample(range(1, 60), 2))
        pairs.append((f"{a}/10", f"{b}/10"))
    return [{"a": a, "b": b} for a, b in pairs]


def _digests(figure_id):
    return [
        hashlib.sha256(render(FigureSpec(figure_id, {k: _parse_rational(v) for k, v in spec.items()}))
                       .encode()).hexdigest()
        for spec in _specs(figure_id)
    ]


#: SHA-256 of each spec's SVG, in ``_specs`` order.
DIGESTS = {
    1: [
        "86b1c1c2af435bfdcfcf4202fc61720e96d392a8a22a564c462a8bf9d4b35b15",
        "2f14dda0987d799145bb4f2db3272ddb197eac6a958399d7381537945ea20de9",
        "2cec4b20edf14ec6a4480c3dcc93538ec45d06d1c0144859a5d0ec5648f2a3c3",
        "c353ece629a3c83d36fd8fb3cbee72902379c208d12a649c36ec1747fe696f3b",
        "9b793f639ae9c15d1429aa06b56a70eadfdd55c82fce217d77da4ab108fbb4b7",
        "c0de627f79c0238c0a0da12ce4506082d0debf7c05a84d7362f601b17bf81f18",
        "05f883eceb33d0f91da701b8acd7700f2b27e59cc68f982b68ac720811e797e7",
        "73943fb57bae3506469909b3ab40bf18c29204414393d6659da5c48abbdb4538",
        "5d049cb745accd37768f7a2d1c36b8e3b545a1584a10146736a51966be84b691",
        "8af61c8dbfe49c75c39f6f19c5a8c984ddf57f7f25d0b0b2351b35d8504b6ae6",
    ],
    2: [
        "2d545a60e84b680257a9f50c45c2e753f561d4b60f5e5136145a28b29d0cd51b",
        "e52368d68513569943b7f4dcccd62327048a583d7effb14dbf0e9b00c48f494e",
        "b93686f84035630e283ad4faafeefb5c46bb4bd399ef60849bd286ab411f1bff",
        "5dc34e1c9e3cc35712f2989c40a85b99a53ec0cd26b02fda83f6e39409ab8470",
        "de3c6fa0fd3f0177b94eee3ceecd2b80b3e8b2d879b31c3bb389ee6988412b5c",
        "9ea6170d4bb206c702eab744d992922290ffc44a2c4b721ae6990ae8fea93e1f",
        "9cb96c372cc4046745df599bc540b111b17df560e1e8d046c205ffb4740fbaf8",
        "66f57aba0e422cb4e359ddb162de93d6617d221bebbc3f7ec01014ed4b5c5498",
        "8c9998b2b447c8e305c22ba8928352039f0ce4a29bf11d2dfe97bfea8b3324cd",
        "4c3d64588690ca2dfa0596cf11ed4f3248f3a696c5940884ce0b157fcc5ca544",
    ],
    3: [
        "4f39c2bb6856fffdcd773d53e3b1cd1082485f3bbe61460283ffeb968f4f8c07",
        "d3de8ef0f6b1ef9742cf2a062e614ab0a35ac337a79138bdd76e9ff7d06e5b15",
        "719b8ea3f66547cccb2ca2f22c665e8cd0ea61bfa9e5eb7a3f18fc2fa4641cf0",
        "e587cf1e6decaf78b4a2f1dd085ee9805e2d65c0c93216393504e1bdfcb5fd8f",
        "bbdc87af5e7e37f65ec8064b78b6582ca82f45f598df396b7bdf0a89e0457c75",
        "05fd8ac237547ca1b0c84ef5bded37f938d2fc9afe89ebec8f1d241233c006e6",
        "1871828667a9e93074ed2e47de65b5157d1d4cc25c40f02532c881af79bfa3f0",
        "e3712783e28e748c5d5c3d0322dbc73116724339727b22327dd1c2b7602068e5",
        "d7b6b7679525dc1a2c7ac1c9caa5363d972f62433bc2dcb33b2a47b794accbbd",
        "68c50a0cbba877e26c279352037e5e8949367b0039718557a6d745202ab167ca",
    ],
    4: [
        "2dc05288111e2a0747ade8cc535b31272f382c85a0a9dc814745c4949f5a440b",
        "045c4bf7f59a0ca6e087734013100c08b87ed00666cbc11ecbba6341a262dc7a",
        "045c4bf7f59a0ca6e087734013100c08b87ed00666cbc11ecbba6341a262dc7a",
        "045c4bf7f59a0ca6e087734013100c08b87ed00666cbc11ecbba6341a262dc7a",
        "045c4bf7f59a0ca6e087734013100c08b87ed00666cbc11ecbba6341a262dc7a",
        "045c4bf7f59a0ca6e087734013100c08b87ed00666cbc11ecbba6341a262dc7a",
        "045c4bf7f59a0ca6e087734013100c08b87ed00666cbc11ecbba6341a262dc7a",
        "045c4bf7f59a0ca6e087734013100c08b87ed00666cbc11ecbba6341a262dc7a",
        "045c4bf7f59a0ca6e087734013100c08b87ed00666cbc11ecbba6341a262dc7a",
        "045c4bf7f59a0ca6e087734013100c08b87ed00666cbc11ecbba6341a262dc7a",
    ],
    5: [
        "b8f044f6a3db9cd21bdf12ad4d1a02de410f7c05576dfa9108e322a743bbc549",
        "b8ff3c1c2796dabcbd85d416c5847e36cd6f6e4329d24cfaa0492e083183a59b",
        "e8d32076294d0fb4b377689ef7f1d5549d28dccf4f7fae3371fb41ff9c19b1a8",
        "7a4a7cc19564b3a43a9157536df411fef23fc80be193c802249de4e8c2be11c4",
        "2fdbce43a6a173ab3b96e36b515fd6b1c93d1780c92d137c0a4ffb136fd036d0",
        "8b4afff70b366066500a0d2b016f66a9a1f2661ed2db8790bbf86107702018d1",
        "f0fd176ed51fd7de5aea9bc705a994cdb1ffd7ca970ba279b19ac5d3e28fcbbb",
        "cc2e8777ef4e9c60f3a1fccabfc4e6a71e3003d4a2b48db2944375d00667cfdc",
        "63608d5dd45af182f5e4159761f4883acc01214676e238430df02d4a80f919fa",
        "0c5fcf3fb02de1592a18e58b62eb138af0300c048f3fc75afabe7b28e7c31c98",
    ],
    6: [
        "a8edd7d2db8b5045e766b156e3cf9c08d78b060f56a5b5f003d3e21b6f1d363a",
        "a8edd7d2db8b5045e766b156e3cf9c08d78b060f56a5b5f003d3e21b6f1d363a",
        "a8edd7d2db8b5045e766b156e3cf9c08d78b060f56a5b5f003d3e21b6f1d363a",
        "f99a3f8f98af1dde186561682d78924e9f580666fbb71e66d3ed651fe6f4e316",
        "f99a3f8f98af1dde186561682d78924e9f580666fbb71e66d3ed651fe6f4e316",
        "2178d75777f0404a1d1d2f812d32c4c61264aa9880ef5918f6880fb42c32ee84",
        "f859bce1ceceb0ac702efb855195de0ad6eef2bd69966ec244a6cb949b799ede",
        "145754d9fd342c6a1f6658a61de25d652c6e6eecd81289373d4a70055ea6479d",
        "55c80cd9ee849d1d12555156c4b2637603779adcbf95e146e6fe46a5006b9366",
        "ab0479e465420a49caa89cdbf944eeb75b89f6b943f7d419e3b3ab0b79d88ecf",
    ],
    7: [
        "238b905fa5c21fece6cb925c6e71485ded64c426a93a789cbb6e1ff9f5c43c6e",
        "238b905fa5c21fece6cb925c6e71485ded64c426a93a789cbb6e1ff9f5c43c6e",
        "238b905fa5c21fece6cb925c6e71485ded64c426a93a789cbb6e1ff9f5c43c6e",
        "d08edc02f2d4a081ea157fc91f2f42fb3eec0dd1341fd27e4879434005c1d60c",
        "d08edc02f2d4a081ea157fc91f2f42fb3eec0dd1341fd27e4879434005c1d60c",
        "773088f7369ce42d858a7ad3ae5bab84289683532bf40d2560e7753c60002874",
        "a09463dedbbbf9884151dd426e68fec431c534741dca29ad7d74a1f1098ecd9b",
        "e835fee6c429373461c98b819ce6e453aad6a17b5187eb05aaca76b06a9011e5",
        "0db393d5f5d303aca4635ecd7f75672769389eecf190d5ad69a996dcb0019373",
        "b6be9264f03401e7123226bbade0012a53c7cc828f129e6f6a98f2fc006e8759",
    ],
}


@pytest.mark.parametrize("figure_id", range(1, 8))
def test_seeded_specs_draw_the_pinned_bytes(figure_id):
    assert _digests(figure_id) == DIGESTS[figure_id]
