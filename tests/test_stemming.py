import pytest
from hypothesis import given, strategies as st

from emco import corpus
from emco.data import mini_corpus_path
from emco.stemming import PorterStemmer

# canonical input/output pairs from the published algorithm description
CANONICAL = [
    ("caresses", "caress"),
    ("ponies", "poni"),
    ("ties", "ti"),
    ("caress", "caress"),
    ("cats", "cat"),
    ("feed", "feed"),
    ("agreed", "agre"),
    ("plastered", "plaster"),
    ("bled", "bled"),
    ("motoring", "motor"),
    ("sing", "sing"),
    ("conflated", "conflat"),
    ("troubled", "troubl"),
    ("sized", "size"),
    ("hopping", "hop"),
    ("tanned", "tan"),
    ("falling", "fall"),
    ("hissing", "hiss"),
    ("fizzed", "fizz"),
    ("failing", "fail"),
    ("filing", "file"),
    ("happy", "happi"),
    ("sky", "sky"),
    ("relational", "relat"),
    ("conditional", "condit"),
    ("rational", "ration"),
    ("valenci", "valenc"),
    ("hesitanci", "hesit"),
    ("digitizer", "digit"),
    ("conformabli", "conform"),
    ("radicalli", "radic"),
    ("differentli", "differ"),
    ("vileli", "vile"),
    ("analogousli", "analog"),
    ("vietnamization", "vietnam"),
    ("predication", "predic"),
    ("operator", "oper"),
    ("feudalism", "feudal"),
    ("decisiveness", "decis"),
    ("hopefulness", "hope"),
    ("callousness", "callous"),
    ("formaliti", "formal"),
    ("sensitiviti", "sensit"),
    ("sensibiliti", "sensibl"),
    ("triplicate", "triplic"),
    ("formative", "form"),
    ("formalize", "formal"),
    ("electriciti", "electr"),
    ("electrical", "electr"),
    ("hopeful", "hope"),
    ("goodness", "good"),
    ("revival", "reviv"),
    ("allowance", "allow"),
    ("inference", "infer"),
    ("airliner", "airlin"),
    ("gyroscopic", "gyroscop"),
    ("adjustable", "adjust"),
    ("defensible", "defens"),
    ("irritant", "irrit"),
    ("replacement", "replac"),
    ("adjustment", "adjust"),
    ("dependent", "depend"),
    ("adoption", "adopt"),
    ("homologou", "homolog"),
    ("communism", "commun"),
    ("activate", "activ"),
    ("angulariti", "angular"),
    ("homologous", "homolog"),
    ("effective", "effect"),
    ("bowdlerize", "bowdler"),
    ("probate", "probat"),
    ("rate", "rate"),
    ("cease", "ceas"),
    ("controll", "control"),
    ("roll", "roll"),
]


@pytest.mark.parametrize("word,expected", CANONICAL)
def test_canonical_pairs(word, expected):
    assert PorterStemmer()(word) == expected


def test_short_words_untouched():
    stem = PorterStemmer()
    for word in ("a", "be", "is", "ox"):
        assert stem(word) == word


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=20))
def test_never_crashes_and_never_grows(word):
    result = PorterStemmer()(word)
    assert 0 < len(result) <= len(word)
    assert result.isascii() and result.isalpha()


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=20))
def test_idempotent_on_its_own_output(word):
    # Porter stemming is not idempotent for every English word, but repeated
    # application must at least be stable for the overwhelming majority;
    # assert the weaker property that a second pass never errors or grows.
    stem = PorterStemmer()
    once = stem(word)
    twice = stem(once)
    assert len(twice) <= len(once)


def test_cached_stems_match_fresh_stemmer():
    # one stemmer over the whole bundled corpus answers repeated words from
    # its cache; a fresh stemmer per token computes every stem
    tokens = [
        tok
        for doc in corpus.load_corpus_jsonl(mini_corpus_path())
        for tok in corpus.tokenize(doc.text)
    ]
    cached = PorterStemmer()
    assert len(set(tokens)) < len(tokens)
    assert [cached(tok) for tok in tokens] == [PorterStemmer()(tok) for tok in tokens]


@pytest.mark.parametrize("table", ["_STEP2", "_STEP3", "_STEP4"])
def test_suffix_tables_are_longest_first(table):
    # the steps take the first matching suffix, which must be the longest
    suffixes = [e if isinstance(e, str) else e[0] for e in getattr(PorterStemmer, table)]
    lengths = [len(s) for s in suffixes]
    assert lengths == sorted(lengths, reverse=True)
