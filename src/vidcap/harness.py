"""Dataset ingestion, feature store, synthetic benchmark and the full
train -> generate -> rerank -> score experiment driver."""

from __future__ import annotations

import json
import os
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import binio
from .decoder import LMConfig, init_lm_params, fit_lm, lm_param_shapes, perplexity
from .ensemble import CandidatePool, GeneratorModel, dump_pools, generate_pool, rerank
from .errors import DataError, DimensionError, FormatError, ParameterError, VidcapError
from .evaluator import EvaluatorConfig, check_training_fits, train_evaluator
from .generation import GenerationConfig, check_beam_fits
from .metrics import MetricReport, check_corpus, references_of, score_captions
from .numerics import OptState, Params, check_fits_in_memory, make_rng
from .text import RESERVED, Vocabulary, build_vocab, encode, tokenize

N_CATEGORIES = 20
SPLITS = ("train", "val", "test")


@dataclass
class VideoRecord:
    id: str
    category: int
    captions: list[str]
    split: str

    def __post_init__(self):
        if not 0 <= self.category < N_CATEGORIES:
            raise DataError(f"video {self.id!r}: category {self.category} out of [0,{N_CATEGORIES})")
        if self.split not in SPLITS:
            raise DataError(f"video {self.id!r}: unknown split {self.split!r}")
        if self.split in ("train", "val") and not self.captions:
            raise DataError(f"video {self.id!r}: {self.split} record needs >= 1 caption")


class Dataset:
    """All splits of one benchmark; ids are unique across the dataset. `path`
    is the file it was read from, None when it was drawn."""

    def __init__(self, records: list[VideoRecord], path=None):
        ids = [r.id for r in records]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise DataError(f"duplicate video ids: {dupes[:5]}")
        self.records = list(records)
        self.path = path

    def split(self, name: str) -> list[VideoRecord]:
        if name not in SPLITS:
            raise ParameterError(f"unknown split {name!r}")
        return [r for r in self.records if r.split == name]

    def references(self, split: str) -> dict[str, list[str]]:
        return {r.id: list(r.captions) for r in self.split(split)}

    def counts(self) -> dict[str, int]:
        return {s: len(self.split(s)) for s in SPLITS}


def load_dataset(path) -> Dataset:
    doc = binio.read_json(path)
    if not isinstance(doc, dict) or not isinstance(doc.get("videos"), list):
        raise DataError(f"{path}: expected a top-level 'videos' array")
    return Dataset([binio.config_from_json(VideoRecord, item, f"{path}: videos[{i}]")
                    for i, item in enumerate(doc["videos"])], path)


def save_dataset(dataset: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"videos": [asdict(r) for r in dataset.records]}, f, sort_keys=True, indent=1)
        f.write("\n")


class FeatureStore:
    """(video id, feature name) -> vector; 'a+b' names resolve by concatenation."""

    def __init__(self):
        self._data: dict[str, dict[str, np.ndarray]] = {}
        self._dims: dict[str, int] = {}

    def add(self, name: str, video_id: str, values: np.ndarray) -> None:
        """One row; DataError unless a finite vector of the feature's dim, for a new video."""
        values = np.asarray(values, dtype=np.float32)
        if values.ndim != 1:
            raise DataError(f"feature {name!r} for {video_id!r} is not a vector")
        if not np.isfinite(values).all():
            raise DataError(f"feature {name!r} for {video_id!r} holds a non-finite value")
        dim = self._dims.setdefault(name, values.shape[0])
        if values.shape[0] != dim:
            raise DataError(
                f"feature {name!r}: dim {values.shape[0]} != established dim {dim}")
        if video_id in self._data.get(name, ()):
            raise DataError(f"feature {name!r} for video {video_id!r} is already in the store")
        self._data.setdefault(name, {})[video_id] = values

    def names(self) -> list[str]:
        return sorted(self._data)

    def videos(self, name: str) -> list[str]:
        return sorted(self._data.get(name, {}))

    def dim(self, name: str) -> int:
        if name in self._dims:
            return self._dims[name]
        if "+" in name:
            return sum(self.dim(p) for p in name.split("+"))
        raise DataError(f"feature {name!r} not in the store")

    def get(self, video_id: str, name: str) -> np.ndarray:
        """Resolve one feature; compound names like 'feat-a+categ' concatenate
        their parts in the given order."""
        if name in self._data:
            row = self._data[name].get(video_id)
            if row is None:
                raise DataError(f"feature {name!r} missing for video {video_id!r}")
            return row.astype(np.float64)
        if "+" in name:
            return np.concatenate([self.get(video_id, p) for p in name.split("+")])
        raise DataError(f"feature {name!r} not in the store (video {video_id!r})")


def save_features(store: FeatureStore, name: str, path) -> None:
    """Write one feature family; an empty store yields a valid zero-count file."""
    rows = [(vid, store.get(vid, name)) for vid in store.videos(name)]
    binio.write_feature_file(path, name, rows)


def load_features(*paths) -> FeatureStore:
    """One store holding every feature file in `paths` (none gives an empty store).
    A feature may span several files; a row the store rejects is a FormatError naming its file."""
    store = FeatureStore()
    for path in paths:
        name, rows = binio.read_feature_file(path)
        try:
            for vid, vec in rows:
                store.add(name, vid, vec)
        except DataError as e:
            raise FormatError(f"{path}: {e}") from None
    return store


# --- Synthetic benchmark -------------------------------------------------
#
# Each video carries two latent concepts. Object-centric videos pair a color
# with an object and always show the one common action; action-centric videos
# pair an adverb with an action performed by the one common subject. Feature
# family A encodes (color, object) with additive noise, family B encodes
# (adverb, action), so a generator trained on A alone can only master the
# object-centric half and vice versa, mirroring complementary specialist
# models whose pooled candidates a reranker can exploit.

SYNTH_COLORS = ("red", "blue", "green", "yellow", "black", "white",
                "purple", "orange", "brown", "pink", "gray", "golden")
SYNTH_OBJECTS = ("cat", "dog", "bird", "horse", "car", "truck",
                 "robot", "monkey", "rabbit", "turtle", "panda", "tiger")
SYNTH_ADVERBS = ("slowly", "quickly", "quietly", "loudly", "calmly", "happily",
                 "sadly", "eagerly", "gently", "roughly", "smoothly", "badly")
SYNTH_ACTIONS = ("running", "jumping", "dancing", "swimming", "climbing", "sleeping",
                 "eating", "drinking", "reading", "singing", "walking", "spinning")
SYNTH_FIXED_ACTION = "posing"   # the action of every object-centric video
SYNTH_FIXED_OBJECT = "person"   # the subject of every action-centric video


@dataclass
class SynthConfig:
    n_videos: int = 200
    n_categories: int = 20
    captions_per_video: int = 3
    noise_sigma: float = 0.05
    train_frac: float = 0.70
    val_frac: float = 0.15

    def __post_init__(self):
        if self.n_videos < 1:
            raise ParameterError(f"n_videos must be >= 1, got {self.n_videos}")
        if not 1 <= self.n_categories <= N_CATEGORIES:
            raise ParameterError(f"n_categories must be in [1,{N_CATEGORIES}]")
        if not 1 <= self.captions_per_video <= 4:
            raise ParameterError("captions_per_video must be in [1,4]")
        if self.noise_sigma < 0:
            raise ParameterError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if not (self.train_frac >= 0 and self.val_frac >= 0
                and self.train_frac + self.val_frac <= 1):
            raise ParameterError("train_frac and val_frac must be >= 0 with a sum <= 1, "
                                 f"got {self.train_frac} and {self.val_frac}")
        max_videos = 2 * len(SYNTH_COLORS) * len(SYNTH_OBJECTS)
        if self.n_videos > max_videos:
            raise ParameterError(
                f"n_videos > {max_videos} would force duplicate concept pairs")


def _captions(subject: str, doing: str, k: int) -> list[str]:
    base = f"{subject} is {doing}"
    return [f"a {base}", f"the {base}", f"a {base} today", f"there is a {subject} {doing}"][:k]


def _onehot_pair(i: int, n_i: int, j: int, n_j: int) -> np.ndarray:
    v = np.zeros(n_i + n_j)
    v[i] = 1.0
    v[n_i + j] = 1.0
    return v


def synth_generate(cfg: SynthConfig, rng: np.random.Generator) -> tuple[Dataset, FeatureStore]:
    """Deterministic synthetic benchmark: dataset plus feat-a / feat-b / categ
    feature families (same seed, same bytes)."""
    from .features import category_onehot  # here: at module level it adds 3 ms to every import
    nc, no = len(SYNTH_COLORS), len(SYNTH_OBJECTS)
    na, nv = len(SYNTH_ADVERBS), len(SYNTH_ACTIONS)
    n_obj_videos = (cfg.n_videos + 1) // 2
    n_act_videos = cfg.n_videos - n_obj_videos
    obj_combos = rng.permutation(nc * no)[:n_obj_videos]
    act_combos = rng.permutation(na * nv)[:n_act_videos]

    n_train = int(round(cfg.train_frac * cfg.n_videos))
    n_val = int(round(cfg.val_frac * cfg.n_videos))
    records: list[VideoRecord] = []
    store = FeatureStore()
    oi = ai = 0
    for i in range(cfg.n_videos):
        vid = f"video{i:04d}"
        if i < n_train:
            split = "train"
        elif i < n_train + n_val:
            split = "val"
        else:
            split = "test"
        category = int(rng.integers(cfg.n_categories))
        if i % 2 == 0:
            combo = int(obj_combos[oi]); oi += 1
            color, obj = SYNTH_COLORS[combo // no], SYNTH_OBJECTS[combo % no]
            captions = _captions(f"{color} {obj}", SYNTH_FIXED_ACTION, cfg.captions_per_video)
            feat_a = _onehot_pair(combo // no, nc + 1, combo % no, no + 1)
            feat_b = _onehot_pair(na, na + 1, nv, nv + 1)  # 'none' + fixed action bins
        else:
            combo = int(act_combos[ai]); ai += 1
            adv, act = SYNTH_ADVERBS[combo // nv], SYNTH_ACTIONS[combo % nv]
            captions = _captions(SYNTH_FIXED_OBJECT, f"{adv} {act}", cfg.captions_per_video)
            feat_a = _onehot_pair(nc, nc + 1, no, no + 1)  # 'none' + fixed object bins
            feat_b = _onehot_pair(combo // nv, na + 1, combo % nv, nv + 1)
        records.append(VideoRecord(id=vid, category=category, captions=captions, split=split))
        store.add("feat-a", vid, feat_a + rng.normal(0.0, cfg.noise_sigma, feat_a.shape))
        store.add("feat-b", vid, feat_b + rng.normal(0.0, cfg.noise_sigma, feat_b.shape))
        store.add("categ", vid, category_onehot(category, cfg.n_categories))
    return Dataset(records), store


# --- Experiment driver ----------------------------------------------------

@dataclass
class ModelSpec:
    tag: str
    init_feature: str
    persist_feature: str
    depth: int = 2


@dataclass
class ExperimentConfig:
    models: list[ModelSpec] = field(default_factory=lambda: [
        ModelSpec("m-a", "categ", "feat-a", depth=2),
        ModelSpec("m-b", "categ", "feat-b", depth=2),
    ])
    evaluator_feature: str = "feat-a+feat-b"
    seed: int = 0
    eval_split: str = "val"
    # decoder
    hidden: int = 64
    embed_dim: int = 64
    dropout_rate: float = 0.0
    lm_epochs: int = 10
    batch_size: int = 16
    # evaluator
    joint_dim: int = 64
    eval_embed_dim: int = 32
    filters_per_width: int = 32
    filter_widths: tuple[int, ...] = (2, 3, 4)
    margin: float = 0.2
    n_negatives: int = 50
    eval_epochs: int = 10
    # optimization / generation / text
    learning_rate: float = 1e-3
    decay: float = 0.9
    epsilon: float = 1e-8
    beam_size: int = 5
    max_len: int = 30
    min_count: int = 5
    # data: paths to load, or synth settings when data_path is None
    data_path: str | None = None
    feature_paths: list[str] = field(default_factory=list)
    synth: SynthConfig = field(default_factory=SynthConfig)

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        """A JSON object of fields; fields it leaves out keep their defaults."""
        return binio.config_from_json(cls, binio.read_json(path), path, partial=True)


@contextmanager
def _stage(name: str):
    """Tag errors escaping a pipeline stage with the stage name."""
    try:
        yield
    except VidcapError as e:
        e.args = (f"[{name}] {e}",)
        raise


def lm_examples(records, store: FeatureStore, vocab: Vocabulary,
                init_name: str, persist_name: str):
    out = []
    for r in sorted(records, key=lambda r: r.id):
        init_vec = store.get(r.id, init_name)
        persist_vec = store.get(r.id, persist_name)
        for c in r.captions:
            out.append((init_vec, persist_vec, encode(tokenize(c), vocab)))
    return out


@dataclass
class RunResult:
    model_rows: list[dict]
    ensemble_row: dict
    table_text: str
    chosen: dict[str, str]

    def to_json(self) -> str:
        return json.dumps({"models": self.model_rows, "ensemble": self.ensemble_row},
                          sort_keys=True, indent=2)


def _format_table(model_rows: list[dict], ensemble_row: dict) -> str:
    header = f"{'#':<3}{'model':<10}{'init':<16}{'persist':<16}{'depth':<7}" \
             f"{'perplex':<10}{'BLEU-4':<9}{'CIDEr':<9}{'ROUGE-L':<9}"
    lines = [header, "-" * len(header)]
    for i, row in enumerate(model_rows, 1):
        lines.append(
            f"{i:<3}{row['tag']:<10}{row['init']:<16}{row['persist']:<16}"
            f"{row['depth']:<7}{row['perplexity']:<10.4f}{row['bleu4']:<9.4f}"
            f"{row['cider']:<9.4f}{row['rouge_l']:<9.4f}")
    e = ensemble_row
    lines.append(
        f"{'E':<3}{'ensemble':<10}{'evaluator reranked pool':<39}"
        f"{'':<10}{e['bleu4']:<9.4f}{e['cider']:<9.4f}{e['rouge_l']:<9.4f}")
    return "\n".join(lines) + "\n"


# --- Pipeline stages --------------------------------------------------------
#
# Each stage has one implementation: run_experiment chains the stages in
# memory, and each stagewise CLI subcommand loads a stage's inputs from files,
# calls it and saves its output. A training stage's prepare_* function checks
# every bound and reads every input, and returns a call that trains:
# run_experiment prepares every training stage in its data stage, so bad input
# fails before any training, and train-lm / train-eval prepare one and call it.
# A stage draws from its own stream of the config seed, make_rng(cfg.seed, k)
# with k = 0 for the data, i + 1 for roster model i and len(cfg.models) + 1 for
# the evaluator, so it gives the same result whichever way it is run.
#
# The prepared calls are independent, so run_experiment overlaps them when a
# second process can run beside the calling one (_can_fork): a forked worker
# makes the calls of roster models 2..k while the calling process makes model
# 1's and then the evaluator's, so tracers and profilers there see a stage of
# each kind. No result depends on the split: the worker's models and
# perplexities come back bit-exact.


def _records(dataset: Dataset, split: str) -> list[VideoRecord]:
    records = dataset.split(split)
    if not records:
        where = f"{dataset.path}: " if dataset.path else ""
        raise DataError(f"{where}need a non-empty {split} split")
    return records


def _opt(cfg: ExperimentConfig) -> OptState:
    return OptState(learning_rate=cfg.learning_rate, decay=cfg.decay, epsilon=cfg.epsilon)


def load_data(cfg: ExperimentConfig) -> tuple[Dataset, FeatureStore]:
    """The files cfg.data_path and cfg.feature_paths, or the synthetic
    benchmark drawn from stream 0 when data_path is unset."""
    if not cfg.data_path:
        return synth_generate(cfg.synth, make_rng(cfg.seed, 0))
    return load_dataset(cfg.data_path), load_features(*cfg.feature_paths)


def write_data(dataset: Dataset, store: FeatureStore, out: Path) -> None:
    """Write dataset.json and one <name>.vfea per feature family into out."""
    save_dataset(dataset, out / "dataset.json")
    for name in store.names():
        save_features(store, name, out / f"{name}.vfea")


def check_roster(tags: list[str]) -> list[str]:
    """A roster's model tags; ParameterError when there are none or one repeats."""
    if not tags:
        raise ParameterError("the model roster is empty")
    if len(set(tags)) != len(tags):
        raise ParameterError(f"model tags must be unique, got {tags}")
    return tags


def make_vocab(cfg: ExperimentConfig, dataset: Dataset) -> Vocabulary:
    """The vocabulary of the train split's captions; DataError when no word
    occurs min_count times, since every caption would then be empty."""
    vocab = build_vocab([c for r in _records(dataset, "train") for c in r.captions],
                        cfg.min_count)
    if len(vocab) == len(RESERVED):
        raise DataError(f"no word of the train captions occurs min_count={cfg.min_count} "
                        "times or more, so the vocabulary is empty")
    return vocab


def lm_config(cfg: ExperimentConfig, spec: ModelSpec, store: FeatureStore,
              vocab: Vocabulary) -> LMConfig:
    """The roster model's LMConfig; ParameterError when training it could not
    fit in memory: its parameters, their gradients and RMSProp accumulators."""
    lm_cfg = LMConfig(vocab_size=len(vocab), init_dim=store.dim(spec.init_feature),
                      persist_dim=store.dim(spec.persist_feature), depth=spec.depth,
                      hidden=cfg.hidden, embed_dim=cfg.embed_dim, dropout_rate=cfg.dropout_rate)
    check_fits_in_memory({name: (3, *shape) for name, shape in lm_param_shapes(lm_cfg).items()},
                         "the parameters, gradients and RMSProp accumulators "
                         f"of model {spec.tag!r}")
    return lm_cfg


def evaluator_config(cfg: ExperimentConfig, store: FeatureStore,
                     vocab: Vocabulary) -> EvaluatorConfig:
    return EvaluatorConfig(
        vocab_size=len(vocab), video_dim=store.dim(cfg.evaluator_feature),
        embed_dim=cfg.eval_embed_dim, filter_widths=cfg.filter_widths,
        filters_per_width=cfg.filters_per_width, joint_dim=cfg.joint_dim,
        margin=cfg.margin, n_negatives=cfg.n_negatives,
        feature_name=cfg.evaluator_feature)


def generation_config(cfg: ExperimentConfig) -> GenerationConfig:
    return GenerationConfig(beam_size=cfg.beam_size, max_len=cfg.max_len)


def prepare_generator(cfg: ExperimentConfig, tag: str, dataset: Dataset, store: FeatureStore,
                      vocab: Vocabulary):
    """Check the roster model `tag` (its config, memory and beam bounds) and
    read both splits' examples, DataError when the eval split has no caption;
    returns a call that trains it on the train split and gives the model, its
    mean loss per epoch and its eval-split perplexity."""
    tags = check_roster([m.tag for m in cfg.models])
    if tag not in tags:
        raise ParameterError(f"no model {tag!r} in the roster; its tags are {tags}")
    i = tags.index(tag)
    spec = cfg.models[i]
    lm_cfg = lm_config(cfg, spec, store, vocab)
    check_beam_fits(generation_config(cfg), lm_cfg, tag)
    _opt(cfg)
    examples, held_out = (lm_examples(_records(dataset, split), store, vocab, spec.init_feature,
                                      spec.persist_feature) for split in ("train", cfg.eval_split))
    if not held_out:
        raise DataError(f"the {cfg.eval_split} split has no captions to measure perplexity on")

    def fit() -> tuple[GeneratorModel, list[float], float]:
        rng = make_rng(cfg.seed, i + 1)
        params = init_lm_params(lm_cfg, rng)
        history = fit_lm(params, lm_cfg, examples, _opt(cfg), rng, epochs=cfg.lm_epochs,
                         batch_size=cfg.batch_size)
        model = GeneratorModel(tag, lm_cfg, params, spec.init_feature, spec.persist_feature)
        return model, history, perplexity(held_out, params, lm_cfg)
    return fit


def prepare_evaluator(cfg: ExperimentConfig, dataset: Dataset, store: FeatureStore,
                      vocab: Vocabulary):
    """Check the caption-video evaluator (its config and memory bound) and read
    the train split's features; returns a call that trains it on the train
    split and gives its config, its parameters and its mean loss per epoch."""
    eval_cfg = evaluator_config(cfg, store, vocab)
    records = _records(dataset, "train")
    check_training_fits(records, vocab, eval_cfg)
    _opt(cfg)
    features = {r.id: store.get(r.id, cfg.evaluator_feature) for r in records}

    def fit() -> tuple[EvaluatorConfig, Params, list[float]]:
        params, history = train_evaluator(
            records, features.__getitem__, vocab, eval_cfg,
            make_rng(cfg.seed, len(cfg.models) + 1), opt=_opt(cfg), epochs=cfg.eval_epochs)
        return eval_cfg, params, history
    return fit


def generate_pools(cfg: ExperimentConfig, models: list[GeneratorModel], dataset: Dataset,
                   store: FeatureStore, vocab: Vocabulary) -> list[CandidatePool]:
    """One beam-search candidate per model for each eval-split video, in id order;
    ParameterError when the tags are not a roster's (check_roster), DataError
    when a model's vocabulary size is not the given vocabulary's."""
    check_roster([model.tag for model in models])
    gen_cfg = generation_config(cfg)
    for model in models:
        if model.cfg.vocab_size != len(vocab):
            raise DataError(f"model {model.tag!r} has a vocabulary of {model.cfg.vocab_size} "
                            f"tokens, the given vocabulary {len(vocab)}")
        check_beam_fits(gen_cfg, model.cfg, model.tag)
    records = sorted(_records(dataset, cfg.eval_split), key=lambda r: r.id)
    return [generate_pool(models, r.id, store.get, gen_cfg, vocab) for r in records]


def rerank_pools(pools: list[CandidatePool], store: FeatureStore, eval_cfg: EvaluatorConfig,
                 eval_params: Params, vocab: Vocabulary) -> dict[str, str]:
    """Score every candidate in place; returns {video id: chosen caption}.
    DataError when the evaluator's vocabulary size is not the given vocabulary's,
    DimensionError naming the feature and the video when its dimension is not
    the evaluator's."""
    if eval_cfg.vocab_size != len(vocab):
        raise DataError(f"the evaluator has a vocabulary of {eval_cfg.vocab_size} tokens, "
                        f"the given vocabulary {len(vocab)}")
    chosen = {}
    for pool in pools:
        feature = store.get(pool.video_id, eval_cfg.feature_name)
        try:
            chosen[pool.video_id] = rerank(pool, feature, eval_params, eval_cfg, vocab).caption
        except DimensionError as e:
            raise DimensionError(f"the evaluator, feature {eval_cfg.feature_name!r}, "
                                 f"video {pool.video_id!r}: {e}") from None
    return chosen


def score_split(cfg: ExperimentConfig, hypotheses: dict[str, str],
                dataset: Dataset) -> MetricReport:
    """BLEU-4, ROUGE-L and CIDEr-D of {video id: caption} against the eval split;
    DataError naming the split when a video has no references there."""
    references = dataset.references(cfg.eval_split)
    for vid in hypotheses:
        references_of(references, vid, f"the {cfg.eval_split} split")
    return score_captions(hypotheses, references)


def save_chosen(chosen: dict[str, str], path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(chosen, f, sort_keys=True, indent=1)


def _can_fork() -> bool:
    """Whether a forked worker can run beside this process: it may use two or
    more CPUs and runs a single thread. Another thread would not exist in the
    child, and a BLAS thread pool would compete with the child for the CPUs:
    with OpenBLAS's default pool on a 2-CPU machine, a default run_experiment
    took 9-19 s with the worker against 4.6-6.6 s without it. The `vidcap`
    command pins BLAS to one thread, so its `run` passes. Where the thread
    count cannot be read (no /proc), the answer is no."""
    try:
        return len(os.sched_getaffinity(0)) > 1 and len(os.listdir("/proc/self/task")) == 1
    except (AttributeError, OSError):
        return False


@contextmanager
def _worker(fn, stage: str):
    """Run fn() in a forked child process while the with-block runs; the block
    gets a `join` that returns fn's result or raises the exception it raised.
    The child always leaves through os._exit, and the parent kills and reaps
    it on every way out of the block. `stage` names the work in the error
    raised when the child dies without a result."""
    import pickle  # numpy has loaded it already; imported here, beside its one use
    import signal  # not at module level: no cold import of this module loads it (~0.8 ms)

    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                outcome = (True, fn())
            except Exception as e:
                outcome = (False, e)
            with os.fdopen(write_fd, "wb") as f:
                pickle.dump(outcome, f, protocol=pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    reader = os.fdopen(read_fd, "rb")
    alive = True

    def join():
        nonlocal alive
        data = reader.read()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        alive = False
        if code != 0:
            how = f"signal {-code}" if code < 0 else f"exit code {code}"
            raise ChildProcessError(f"[{stage}] the worker process ended by {how} "
                                    "without a result")
        ok, value = pickle.loads(data)  # bytes our own child wrote
        if not ok:
            raise value
        return value

    try:
        yield join
    finally:
        reader.close()
        if alive:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None) -> RunResult:
    """Train every roster model and the evaluator, generate candidate pools on
    the eval split, rerank, and score singles plus the ensemble.

    The data stage prepares every training stage, checks that the eval split
    can be scored and reads its evaluator features, so bad input fails before
    training. When _can_fork() allows, a forked worker trains and scores
    models 2..k while this process trains and scores model 1, then trains the
    evaluator. No result depends on it; the first error raised is the first
    in run order (model 1 and its eval-split perplexity, the evaluator, models
    2..k and theirs), and no worker process outlives it."""
    with _stage("data"):
        check_roster([m.tag for m in cfg.models])
        for name, least in (("lm_epochs", 0), ("eval_epochs", 0), ("batch_size", 1)):
            if getattr(cfg, name) < least:
                raise ParameterError(f"{name} must be >= {least}, got {getattr(cfg, name)}")
        dataset, store = load_data(cfg)
        vocab = make_vocab(cfg, dataset)
        fits = [(spec.tag, prepare_generator(cfg, spec.tag, dataset, store, vocab))
                for spec in cfg.models]
        fit_eval = prepare_evaluator(cfg, dataset, store, vocab)
        eval_records = _records(dataset, cfg.eval_split)
        check_corpus(len(eval_records), f"the {cfg.eval_split} split")
        references = dataset.references(cfg.eval_split)
        for r in eval_records:
            references_of(references, r.id, f"the {cfg.eval_split} split")
            store.get(r.id, cfg.evaluator_feature)
        if out_dir is not None:
            try:
                Path(out_dir).mkdir(parents=True, exist_ok=True)
            except OSError as e:
                raise DataError(f"cannot create the output directory {out_dir}: "
                                f"{e.strerror or e}") from None

    def train(tag: str, fit) -> tuple[GeneratorModel, float]:
        with _stage(f"train-lm:{tag}"):
            model, _, ppl = fit()
            return model, ppl

    first, *rest = fits

    def train_rest() -> list[tuple[GeneratorModel, float]]:
        return [train(*item) for item in rest]

    with (_worker(train_rest, "train-lm:" + ",".join(tag for tag, _ in rest))
          if rest and _can_fork() else nullcontext(train_rest)) as join:
        trained = [train(*first)]
        with _stage("train-eval"):
            eval_cfg, eval_params, _ = fit_eval()
        trained += join()
    models = [model for model, _ in trained]

    with _stage("generate-rerank"):
        pools = generate_pools(cfg, models, dataset, store, vocab)
        chosen = rerank_pools(pools, store, eval_cfg, eval_params, vocab)

    def scores(hypotheses: dict[str, str]) -> dict:
        report = score_split(cfg, hypotheses, dataset)
        return {"bleu4": report.bleu4, "cider": report.cider, "rouge_l": report.rouge_l}

    with _stage("score"):  # model i's caption is entry i of every pool: roster order
        model_rows = [{"tag": spec.tag, "init": spec.init_feature, "persist": spec.persist_feature,
                       "depth": spec.depth, "perplexity": ppl,
                       **scores({p.video_id: p.entries[i].caption for p in pools})}
                      for i, (spec, (_, ppl)) in enumerate(zip(cfg.models, trained))]
        ensemble_row = scores(chosen)

    table = _format_table(model_rows, ensemble_row)
    result = RunResult(model_rows=model_rows, ensemble_row=ensemble_row,
                       table_text=table, chosen=chosen)
    if out_dir is not None:
        out = Path(out_dir)
        write_data(dataset, store, out)
        vocab.save(out / "vocab.tsv")
        dump_pools(pools, out / "pools.jsonl")
        save_chosen(chosen, out / "chosen.json")
        (out / "results.txt").write_text(table, encoding="utf-8")
        (out / "results.json").write_text(result.to_json() + "\n", encoding="utf-8")
    return result
