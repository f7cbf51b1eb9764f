"""Golden datasets: the exact content of every canned city.

Each of the 7 canned cities is built at ``tiny`` and ``small`` (and at
``bench`` under ``-m slow``) and four values are compared with the ones
it was recorded with:

* ``dataset_fingerprint`` — the road, its aggregated demand and the
  transit network, i.e. everything the pre-computation reads;
* the number of generated trips and the number the 5% filter accepted;
* a sha256 over the trip records themselves (pickup, dropoff and the
  float64 bytes of distance and duration), which the fingerprint does
  not cover.

A change that is meant to keep datasets byte-identical (a faster
shortest-path engine, a cheaper rng call with the same draws) must leave
this file passing unedited. A change that moves a dataset on purpose
re-records the values here in its own commit and says why.
"""

import hashlib
import struct

import pytest

from repro.data.datasets import CITY_NAMES, canned_city
from repro.sweep.cache import dataset_fingerprint

# (city, profile): (dataset fingerprint, trips, accepted trips, trip digest)
GOLDEN = {
    ("chicago", "tiny"): ("0a2b42722f79309c2e3e2472a399c15ae669a55d31d9d6519128ab273e12fd07", 337, 306, "d44349d42a345376b4879efe5b59ec492866bc4fbc46cab0957d85b19637337f"),
    ("nyc", "tiny"): ("d07b7d95c034bd71d9eed4895f1ff4497027a64592e0b941650aff83fcd7b5f1", 508, 450, "aa8089161256cfe283eb73a5852a12a633e28bd9629a04b677c66e45ea250627"),
    ("manhattan", "tiny"): ("503f443c5c30cf7e199a07c034142284284627129e73335dcde63fca1e3cc6eb", 254, 217, "2d4b99e3ce8fd0437e29d776a709cb0fe175cfc227526b1d2fd8b3b0f461f14b"),
    ("queens", "tiny"): ("716269d9bb03e7c231796e75516dc800e051f5b34615053885f7f92f8a174e6a", 188, 171, "ddff3b6d6d6f2124dbb3ad8826617691d49ffdaff708ef174f9ce8cde7403ef7"),
    ("brooklyn", "tiny"): ("95fa825e3b1d6dcbdc3551941b3607c944550105d7c45d23708f17581db037b1", 201, 186, "cd2412553e94a74e37369667d06a086164054a729ba059648da84d349c00aa21"),
    ("staten_island", "tiny"): ("3c4d7fa6b1ac68a4f0456724f35aba7605957727d141cbf367958d88df3efb0f", 127, 109, "366c37d786b37b7899ecb376bd87a6e277a0e493d2a0df3658aec99d65348657"),
    ("bronx", "tiny"): ("bdd08a9ad2105ea1627916fb22a1b93022941e5924e09cae4d90f2e498467a3d", 163, 145, "6d68177608f27586c22eaea896c4cc5debce4d9775a1770acdc28a8b5cd7f351"),
    ("chicago", "small"): ("d427aaee6306e4427e247546e0e4651effd317fbbf4855f652542481c894e0fa", 1423, 1268, "3e1f28cf6f6cc48ca07005be23b7f3ad9a2b3a471e8335c3c9c3638e03d8f118"),
    ("nyc", "small"): ("4ac32a8cfc02b78723be8cb38517d0171a431f02136d64882e7d5bb4e8e0ab53", 2147, 1909, "9c6e61f37fc9df1c45761bc7b7606f6a5ca6db06abba422be245101035f01f26"),
    ("manhattan", "small"): ("3bd80f1201c19ee98a2b4bd3f71e19988a6d04dfbdba1a9e10b1c319567d2682", 1049, 931, "90a7c16964f3c7a878a39af5a8190ecbd29e526682021755dd0eeb87004c15bb"),
    ("queens", "small"): ("c099ce3ae16c5ffe8ace8ce43b653d4bd535894d7b990dcb1930aee26c3ec0dc", 830, 728, "d3d783f550e84072ac6812ea34a565266eef00829b9a6ce0034b6f1555d0ab2c"),
    ("brooklyn", "small"): ("daaf5aa6837497598639827d6d627b3b35a817e30e25be41ee07bd0486c1f1b6", 951, 856, "e68ee0cbeb78117bfb79f412d8498f35ba41ac5a3b82639d96eee175f26d0d08"),
    ("staten_island", "small"): ("75ed2ba8c0cae5c1ef988afedf2bcfc50616afac887f7ffe88e8058ec87c74d1", 467, 423, "1b1e202cdeea1bb49f644ac4025bf31408d898d0202aafa5afe846185ec97690"),
    ("bronx", "small"): ("83f85c79dd3ad634f576b9dadc3cc8db286aa0f830bd75afaed78a40af98cfa5", 704, 632, "468b88f48ba51633d28884660aafff71b54bf868ca2ed110538ce517426eb37b"),
    ("chicago", "bench"): ("839721ced6daea8201d6c2ff716a7ec62fbd9e50f7b45660c1b77f9ab6ee7592", 11941, 10638, "1a0ca5fd39c0913f0aad482fe4bb6a439cc2fa370ec852ce5cf9532598784088"),
    ("nyc", "bench"): ("5ca0743e16fc01593b8f47554138ef31f25b4ecef555f63809ab387c320b9f2b", 17958, 15942, "4dd27b90fc47bad7e35a7b542c1ad2a410918f0b8c925478f49b7792b63dac30"),
    ("manhattan", "bench"): ("c5f716a167c22a7a3e3bda2e34f2a341b192b8b4e727e65912e95b4c4e08a505", 8915, 7918, "7f322b00ef42d87249476dea815322b9b8a24297d102b5a6d9e4f49ed49b9e7d"),
    ("queens", "bench"): ("a81185fbd1fb0173d67500ffce0b074ea0fbf5ab2c185322d244239a7ff8bb0f", 6957, 6164, "5c1c4fb9c8bff5d73f4020240a0f01fc0bf49bb94dabb2ee43e27c09797a89bc"),
    ("brooklyn", "bench"): ("f85129046fb49d2e9c42408e04f47ea8aedf802740d1fa35c539a716c6a2627b", 7968, 7090, "bbc80c554fff5e966da662a8b4d7134c024585dceefaa22410c1077df5d26170"),
    ("staten_island", "bench"): ("334af3a9d0591a0ff3cbb76c355beb33a5076a36e058f81f6e94ac3a2d4ae9ec", 3971, 3541, "1d2898495533b7c1eecebf425597d1941d03cb0a03b9576cd2abb1a33865bf2c"),
    ("bronx", "bench"): ("7af75b0901065c7df71adfd076c6e6f39ac3aa67ef12bdd1afa3e888b8e2d8ec", 5973, 5306, "a33f157056799e83be6b6e29c4027a9ea62ce25de862dc31998958543e26e694"),
}

CASES = [
    pytest.param(
        city, profile, id=f"{city}-{profile}",
        marks=[pytest.mark.slow] if profile == "bench" else [],
    )
    for profile in ("tiny", "small", "bench")
    for city in CITY_NAMES
]


def trips_digest(trips) -> str:
    """sha256 over the trip records in order."""
    h = hashlib.sha256()
    for t in trips:
        h.update(struct.pack(
            "<qqdd", t.pickup_vertex, t.dropoff_vertex, t.distance_km, t.duration_min
        ))
    return h.hexdigest()


def test_every_canned_city_is_pinned():
    assert {city for city, _ in GOLDEN} == set(CITY_NAMES)


@pytest.mark.parametrize("city, profile", CASES)
def test_dataset_matches_golden(city, profile):
    ds = canned_city(city, profile)
    got = (
        dataset_fingerprint(ds), len(ds.trips), ds.accepted_trips, trips_digest(ds.trips)
    )
    assert got == GOLDEN[(city, profile)]
