"""Regenerate the bundled synthetic corpus.

Every tweet is written so its keywords overlap exactly one category
vocabulary, which makes the intended category of each tweet known by
construction. Ten extra target tweets match only through the extended
vocabulary. Run from anywhere: python3 tests/data/make_fixtures.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

SEEDS = {
    "affected_population": [
        "injured", "dead", "missing", "casualties", "victims", "trapped",
        "displaced", "toll",
    ],
    "early_warning": [
        "warning", "alert", "evacuation", "forecast", "sirens", "advisory",
        "preparedness",
    ],
    "infrastructure_damage": [
        "bridge", "road", "collapsed", "damaged", "rubble", "powerlines",
        "buildings", "railway",
    ],
    "volunteer_support": [
        "volunteers", "donations", "relief", "shelter", "rescue", "supplies",
        "helpline", "blood",
    ],
}
NAMES = {
    "affected_population": "Affected Population",
    "early_warning": "Early Warning",
    "infrastructure_damage": "Infrastructure Damage",
    "volunteer_support": "Volunteer Support",
}
EXTENDED = {
    "affected_population": ["stranded", "homeless"],
    "early_warning": ["curfew", "bulletin"],
    "infrastructure_damage": ["levee", "embankment"],
    "volunteer_support": ["blankets", "tarpaulin"],
}

# (id, category, text, in_gold_summary)
TARGET_TWEETS = [
    ("ap01", "affected_population", "Flood toll rises to 40 across the valley http://t.co/ab12 #MonsoonFloods", True),
    ("ap02", "affected_population", "Dozens injured as water entered low lying homes overnight", False),
    ("ap03", "affected_population", "Six fishermen missing near the swollen river, say local media @newsdesk", False),
    ("ap04", "affected_population", "Hundreds of families displaced from riverside settlements #flood", False),
    ("ap05", "affected_population", "Two children among the dead as floodwater swept the village", False),
    ("ap06", "affected_population", "Several casualties reported from the northern district this morning", False),
    ("ap07", "affected_population", "Elderly couple trapped on a rooftop for nine hours before help came", False),
    ("ap08", "affected_population", "Victims of the deluge recall how quickly the water rose 😢", False),
    ("ap09", "affected_population", "Death toll climbs as rains continue to batter the region", False),
    ("ap10", "affected_population", "More than 200 people injured across three towns, hospitals overwhelmed", True),
    ("ap11", "affected_population", "List of missing persons shared by the district administration http://t.co/xy9", False),
    ("ap12", "affected_population", "Displaced families crowd into school halls waiting for the water to recede", False),
    ("ap13", "affected_population", "Workers pull trapped residents from a submerged bus", False),
    ("ap14", "affected_population", "Injured survivors carried across waist deep water to the highway", False),
    ("ap15", "affected_population", "Farmers count their dead cattle after the deluge, lives upended", False),
    ("ap16", "affected_population", "City reports fresh casualties as a second wave of water arrives", False),
    ("ap17", "affected_population", "Mother reunited with her missing son after two days 🙏", False),
    ("ap18", "affected_population", "Victims queue outside the clinic, many still in shock", False),
    ("ap19", "affected_population", "Official toll now includes nine villages, councillor tells reporters", False),
    ("ap20", "affected_population", "Displaced residents say they had minutes to leave their homes", True),
    ("ap21", "affected_population", "Teenager trapped under a fallen tree freed by neighbours", False),
    ("ap22", "affected_population", "At least twelve dead and scores injured, tally expected to rise", False),
    ("ew01", "early_warning", "Red warning issued for the upper catchment till Sunday #weather", False),
    ("ew02", "early_warning", "Evacuation orders cover twelve riverside wards, move now urges mayor", True),
    ("ew03", "early_warning", "Flood alert continues as the barrage releases more water", False),
    ("ew04", "early_warning", "Latest forecast puts another 90mm of rain over the hills tonight", False),
    ("ew05", "early_warning", "Sirens sounded twice; residents moved to higher ground", False),
    ("ew06", "early_warning", "Fresh advisory asks fishermen to stay off the coast @MetDept", False),
    ("ew07", "early_warning", "Preparedness drills last month paid off, says the district commissioner", False),
    ("ew08", "early_warning", "Evacuation routes marked on the new city map, check before the storm", False),
    ("id01", "infrastructure_damage", "Main bridge over the river washed away near the mill #flood", True),
    ("id02", "infrastructure_damage", "Arterial road caved in, traffic diverted through the old town", False),
    ("id03", "infrastructure_damage", "Two school buildings collapsed overnight, no one inside", False),
    ("id04", "infrastructure_damage", "Flood water damaged the grain depot and the pumping station", False),
    ("id05", "infrastructure_damage", "Crews clear rubble where the market wall gave way http://t.co/qq1", False),
    ("id06", "infrastructure_damage", "Powerlines down across the eastern grid, outages till midnight", False),
    ("id07", "infrastructure_damage", "Railway track under three feet of water beyond the junction", False),
    ("id08", "infrastructure_damage", "Cracks appear on the damaged flyover, engineers order load tests", False),
    ("id09", "infrastructure_damage", "The collapsed culvert cut off four hamlets from the highway", False),
    ("id10", "infrastructure_damage", "Old stone bridge stands but the approach road is gone", False),
    ("id11", "infrastructure_damage", "Substation flooding damaged transformers, repairs to take a week", False),
    ("id12", "infrastructure_damage", "Drone footage shows rubble lining both banks of the canal", False),
    ("id13", "infrastructure_damage", "Bus depot roof collapsed under the weight of the storm water", True),
    ("id14", "infrastructure_damage", "Half the buildings on the riverfront are unsafe, survey finds", False),
    ("id15", "infrastructure_damage", "Road to the dam closed after fresh landslides #monsoon", False),
    ("id16", "infrastructure_damage", "Temporary bailey bridge to be erected by the army unit", False),
    ("id17", "infrastructure_damage", "Powerlines snapped near the school, area cordoned off", False),
    ("vs01", "volunteer_support", "Volunteers ferry drinking water to marooned hamlets 🚤", False),
    ("vs02", "volunteer_support", "Donations pour in after the mayor's appeal, warehouse full", False),
    ("vs03", "volunteer_support", "Relief camps now open in six schools across the block", True),
    ("vs04", "volunteer_support", "Temporary shelter set up at the stadium for five hundred people", False),
    ("vs05", "volunteer_support", "Rescue boats worked through the night on the old canal", False),
    ("vs06", "volunteer_support", "Medical supplies airlifted to the cut off villages @AidWing", False),
    ("vs07", "volunteer_support", "New helpline numbers published for affected callers", False),
    ("vs08", "volunteer_support", "Blood donors asked to reach the district hospital by noon", True),
    ("vs09", "volunteer_support", "College students join the relief effort sorting grain bags", False),
    ("vs10", "volunteer_support", "Community kitchen serves three thousand meals with local donations", False),
    ("vs11", "volunteer_support", "Fishermen lead the rescue in lanes too narrow for army boats", False),
    ("vs12", "volunteer_support", "Volunteers sort clothes and utensils at the town hall", False),
    ("vs13", "volunteer_support", "Supplies of candles and matches handed out before nightfall", False),
]

# Tweets classifiable only once the extended vocabulary is approved.
TARGET_EXTENDED_TWEETS = [
    ("xa01", "affected_population", "Hundreds stranded on the highway as the water keeps rising", False),
    ("xa02", "affected_population", "Families left homeless say compensation has not reached them", False),
    ("xa03", "affected_population", "Tourists stranded at the resort were airlifted in the afternoon", False),
    ("xe01", "early_warning", "Night curfew announced for the riverfront until further notice", False),
    ("xe02", "early_warning", "The evening bulletin lists which wards must move to the camps", False),
    ("xi01", "infrastructure_damage", "The levee breach flooded the lower bazaar within minutes", False),
    ("xi02", "infrastructure_damage", "Water seeps through the embankment by the pump house", False),
    ("xi03", "infrastructure_damage", "Engineers race to plug the levee before the next surge", False),
    ("xv01", "volunteer_support", "Blankets and dry rations handed out from the gurudwara", False),
    ("xv02", "volunteer_support", "Tarpaulin sheets distributed to families camping on the bund", False),
]

QUAKE_TWEETS = [
    ("qa01", "affected_population", "Tremor toll reaches 18 in the border district #earthquake", True),
    ("qa02", "affected_population", "Dozens injured when the bazaar wall fell at dawn", False),
    ("qa03", "affected_population", "Search dogs look for missing hikers near the pass", False),
    ("qa04", "affected_population", "Hill villages report fresh casualties after the aftershock", False),
    ("qa05", "affected_population", "Families displaced by the quake camp in the orchard", True),
    ("qa06", "affected_population", "Three miners trapped in the tunnel since the first jolt", False),
    ("qa07", "affected_population", "Victims of the collapse include two teachers, says an official", False),
    ("qa08", "affected_population", "Clinic treats the injured on the lawn as wards overflow", True),
    ("qa09", "affected_population", "The dead were carried down the slope on rope stretchers", False),
    ("qa10", "affected_population", "Official toll revised upward after the night searches", False),
    ("qa11", "affected_population", "Displaced herders move their flocks to the lower meadow", False),
    ("qa12", "affected_population", "School reopens to house displaced families from the ridge", False),
    ("qe01", "early_warning", "Aftershock warning keeps residents outdoors overnight", False),
    ("qe02", "early_warning", "Evacuation of the old quarter ordered after new cracks", True),
    ("qe03", "early_warning", "Seismic alert network sent phones buzzing before the jolt", False),
    ("qe04", "early_warning", "Advisory tells schools to hold assemblies on open ground", False),
    ("qe05", "early_warning", "Preparedness training resumes in the valley schools", False),
    ("qe06", "early_warning", "Sirens tested across the town hall grid this morning", False),
    ("qi01", "infrastructure_damage", "Stone bridge on the pilgrim route collapsed in the quake", True),
    ("qi02", "infrastructure_damage", "Mountain road blocked by boulders beyond the third bend", False),
    ("qi03", "infrastructure_damage", "Minaret crashed into the courtyard, rubble being cleared", False),
    ("qi04", "infrastructure_damage", "Old granary damaged, grain shifted to the cooperative", False),
    ("qi05", "infrastructure_damage", "Powerlines tangled across the lane after the tremor", False),
    ("qi06", "infrastructure_damage", "Railway line buckled near the viaduct, services halted", True),
    ("qi07", "infrastructure_damage", "Heritage buildings cordoned off pending a structural survey", False),
    ("qi08", "infrastructure_damage", "The damaged minar leans a degree more, laser survey shows", False),
    ("qi09", "infrastructure_damage", "Village road split into two along a forty metre crack", False),
    ("qi10", "infrastructure_damage", "Temple wall collapsed on parked scooters, none hurt", True),
    ("qi11", "infrastructure_damage", "Rubble from the old gate blocks the market entrance", False),
    ("qi12", "infrastructure_damage", "Bridge inspectors walk the span before reopening it", False),
    ("qv01", "volunteer_support", "Volunteers dig with bare hands alongside the soldiers", False),
    ("qv02", "volunteer_support", "Blood camp at the college extended till midnight", True),
    ("qv03", "volunteer_support", "Relief convoys take the longer valley route tonight", False),
    ("qv04", "volunteer_support", "Donations of tents and torches listed on the notice board", False),
    ("qv05", "volunteer_support", "Helpline numbers painted on the school wall", False),
    ("qv06", "volunteer_support", "Field kitchen serves the rescue teams at the base camp", False),
]

BLAST_TWEETS = [
    ("ba01", "affected_population", "Market blast leaves nine dead and dozens hurt", True),
    ("ba02", "affected_population", "Injured bystanders taken to the central infirmary", False),
    ("ba03", "affected_population", "Two stallholders still missing after the explosion", False),
    ("ba04", "affected_population", "Casualties moved to three hospitals across the city", True),
    ("ba05", "affected_population", "Victims include a tour guide and a florist, police say", False),
    ("ba06", "affected_population", "Toll may rise, surgeons warn reporters at midnight", False),
    ("ba07", "affected_population", "Shoppers trapped in the arcade freed by firemen", True),
    ("ba08", "affected_population", "Families of the dead gather at the cathedral square", True),
    ("ba09", "affected_population", "Blast injured a cyclist two streets from the square", False),
    ("ba10", "affected_population", "City counts its casualties as the names are confirmed", False),
    ("be01", "early_warning", "Security alert keeps the metro shut till morning", False),
    ("be02", "early_warning", "Evacuation of the quarter ordered while sappers sweep", False),
    ("bi01", "infrastructure_damage", "Shopfront buildings damaged along the tram line", False),
    ("bi02", "infrastructure_damage", "Arcade roof collapsed over the west entrance", True),
    ("bi03", "infrastructure_damage", "Rubble sifted for evidence through the night", False),
    ("bi04", "infrastructure_damage", "Tram road stays closed for the forensic work", True),
    ("bv01", "volunteer_support", "Blood donors queue before the appeal even ends", True),
    ("bv02", "volunteer_support", "Volunteers hand out coffee to the night shift crews", False),
    ("bv03", "volunteer_support", "Relief fund opened for the stallholders' families", True),
    ("bv04", "volunteer_support", "Shelter arranged for tourists locked out of hotels", False),
]

VOCAB_DOC = """\
The levee failed where the road dips near the sawmill. A damaged levee
can give way without notice. Workers piled sandbags on the levee to
protect the bridge. The railway embankment eroded in the storm.
Floodwater topped the embankment and entered the road. Engineers
inspected the embankment beside the collapsed span.
Boats carried the stranded and the injured to dry ground. Many
stranded residents were listed as missing at first. The stranded were
given food while the toll was verified. The homeless and the displaced
shared the school compound. Those homeless after the deluge included
injured farmhands. Census teams counted the homeless among the victims
by evening.
A curfew followed the evacuation of the lower wards. The night curfew
was announced over the sirens. Police enforced the curfew after the
flood warning. The weather bulletin repeated the flood forecast at
noon. Each bulletin carried the same advisory for boatmen. Radio
stations read the alert bulletin every hour.
Donated blankets and dry rations reached the relief camp. Volunteers
handed out blankets at the shelter door. The school gym stored
blankets, lanterns and medical supplies. Rescue crews tied tarpaulin
sheets over the leaking roofs. Fresh tarpaulin arrived with the grain
donations on Tuesday. Families queued at the relief point for
tarpaulin and rope.
"""

DELIBERATE_OOV = {"gurudwara", "stretchers", "scooters"}


def write_dataset(path: Path, header: dict, tweets) -> None:
    lines = [json.dumps(header, sort_keys=True)]
    for tweet_id, category, text, in_gold in tweets:
        record = {"id": tweet_id, "text": text}
        if in_gold:
            record["gold_category"] = category
        lines.append(json.dumps(record, sort_keys=True))
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def build_embeddings(path: Path, words_by_category: dict, neutral: set) -> None:
    rng = np.random.default_rng(42)
    anchors = {
        "affected_population": np.array([1, 0, 0, 0, 0, 0, 0, 0], float),
        "early_warning": np.array([0, 1, 0, 0, 0, 0, 0, 0], float),
        "infrastructure_damage": np.array([0, 0, 1, 0, 0, 0, 0, 0], float),
        "volunteer_support": np.array([0, 0, 0, 1, 0, 0, 0, 0], float),
    }
    vectors: dict[str, np.ndarray] = {}
    for category in sorted(words_by_category):
        for word in sorted(words_by_category[category]):
            if word in DELIBERATE_OOV or word in vectors:
                continue
            vectors[word] = anchors[category] + 0.2 * rng.normal(size=8)
    for word in sorted(neutral):
        if word in DELIBERATE_OOV or word in vectors:
            continue
        vectors[word] = 0.4 * rng.normal(size=8)
    lines = [f"{len(vectors)} 8"]
    for word in sorted(vectors):
        vec = np.round(vectors[word], 4)
        assert float(np.linalg.norm(vec)) > 0.0
        lines.append(word + " " + " ".join(f"{v:.4f}" for v in vec))
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def main() -> None:
    import crisumm.corpus as corpus
    from crisumm.categorizer import classify
    from crisumm.ontology import (apply_approvals, harvest_candidates,
                                  load_approvals, load_ontology)

    ontology_payload = {"categories": [
        {"id": cid, "name": NAMES[cid], "keywords": SEEDS[cid]}
        for cid in sorted(SEEDS)
    ]}
    (HERE / "ontology.json").write_text(
        json.dumps(ontology_payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    (HERE / "vocab_docs.txt").write_text(VOCAB_DOC, encoding="utf-8")
    approval_rows = ["category_id,word"]
    for cid in sorted(EXTENDED):
        for word in sorted(EXTENDED[cid]):
            approval_rows.append(f"{cid},{word}")
    (HERE / "approvals.csv").write_text(
        "".join(row + "\n" for row in approval_rows), encoding="utf-8")

    write_dataset(HERE / "target.jsonl",
                  {"id": "flood_asia_2019", "disaster_type": "natural",
                   "continent": "asia"},
                  TARGET_TWEETS + TARGET_EXTENDED_TWEETS)
    write_dataset(HERE / "candidate_quake.jsonl",
                  {"id": "quake_asia_2018", "disaster_type": "natural",
                   "continent": "asia"},
                  QUAKE_TWEETS)
    write_dataset(HERE / "candidate_blast.jsonl",
                  {"id": "blast_europe_2017", "disaster_type": "man-made",
                   "continent": "europe"},
                  BLAST_TWEETS)

    labels = {tid: cat for tid, cat, _, _ in
              TARGET_TWEETS + TARGET_EXTENDED_TWEETS}
    (HERE / "target_labels.json").write_text(
        json.dumps(labels, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    reference_lines = [text for _, _, text, in_gold in TARGET_TWEETS if in_gold]
    (HERE / "reference.txt").write_text(
        "".join(line + "\n" for line in reference_lines), encoding="utf-8")

    (HERE / "pipeline.cfg").write_text(
        "# Full-pipeline configuration over the bundled synthetic corpus.\n"
        "ontology = ontology.json\n"
        "target = target.jsonl\n"
        "candidates = candidate_quake.jsonl, candidate_blast.jsonl\n"
        "embeddings = embeddings.txt\n"
        "vocab_docs = vocab_docs.txt\n"
        "approvals = approvals.csv\n"
        "reference = reference.txt\n"
        "m = 8\n"
        "use_extended = true\n"
        "homogeneous_only = true\n"
        "top_k = 25\n"
        "regression_kind = linear\n"
        "lam = 0.5\n"
        "selector_kind = dmmr\n",
        encoding="utf-8")

    # --- validate the construction ------------------------------------
    stopwords = corpus.default_stopwords()
    lexicon = corpus.default_lexicon()
    seed_ontology = load_ontology(HERE / "ontology.json")
    candidates = harvest_candidates(
        seed_ontology, [VOCAB_DOC], lexicon, min_freq=3, stopwords=stopwords)
    approvals = load_approvals(HERE / "approvals.csv")
    extended_ontology = apply_approvals(seed_ontology, candidates, approvals)
    extended_by_id = {c.id: c for c in extended_ontology.categories}
    for cid, words in EXTENDED.items():
        got = extended_by_id[cid].extended_keywords
        assert got == frozenset(words), (cid, sorted(got), words)

    datasets = {
        "target": corpus.load_tweets(HERE / "target.jsonl", stopwords, lexicon),
        "quake": corpus.load_tweets(HERE / "candidate_quake.jsonl",
                                    stopwords, lexicon),
        "blast": corpus.load_tweets(HERE / "candidate_blast.jsonl",
                                    stopwords, lexicon),
    }
    expected = {tid: cat for tid, cat, _, _ in
                TARGET_TWEETS + TARGET_EXTENDED_TWEETS
                + QUAKE_TWEETS + BLAST_TWEETS}
    extended_ids = {tid for tid, _, _, _ in TARGET_EXTENDED_TWEETS}
    for name, dataset in datasets.items():
        for tweet in dataset.tweets:
            want = expected[tweet.id]
            overlapping = [
                c.id for c in extended_ontology.categories
                if tweet.keywords & c.vocabulary(True)
            ]
            assert overlapping == [want], (name, tweet.id, overlapping, want)
            seed_hit = classify(tweet, seed_ontology, False)["category_id"]
            if tweet.id in extended_ids:
                assert seed_hit is None, (tweet.id, seed_hit)
            else:
                assert seed_hit == want, (tweet.id, seed_hit, want)

    words_by_category = {
        cid: set(SEEDS[cid]) | set(EXTENDED[cid]) for cid in SEEDS
    }
    neutral = set()
    for dataset in datasets.values():
        for tweet in dataset.tweets:
            neutral.update(tweet.keywords)
    neutral -= {w for ws in words_by_category.values() for w in ws}
    build_embeddings(HERE / "embeddings.txt", words_by_category, neutral)
    print(f"fixtures written to {HERE} "
          f"({len(neutral)} neutral words, OOV: {sorted(DELIBERATE_OOV)})")


if __name__ == "__main__":
    main()
