"""Regression training with set-sum label recombination.

Virtual training samples are sets of real images whose label is the sum of
the members' labels; training computes one loss per set on the summed
prediction.  The package bundles the autodiff/CNN core, the set sampler and
geometric augmentations, a synthetic counting-dataset generator, training
and learning-curve harnesses, and agreement metrics.
"""

from .augment import (AugmentationConfig, SampleSet, SetSamplerConfig, count_combinations,
                      make_epoch_sets, mixup_pair, random_geometric_augment, virtual_label)
from .autodiff import Tensor, backpropagate
from .data import (DatasetManifest, ImageRecord, SyntheticConfig, center_of_mass_crop,
                   generate_blob_image, generate_dataset, read_manifest, read_tensor,
                   rescale_intensity, write_manifest, write_tensor)
from .metrics import MetricsReport, evaluate_pairs, icc, mae, mse, williams_test
from .optim import AdadeltaState, adadelta_step
from .regressor import (ArchitectureConfig, RegressorModel, build_base_regressor,
                        hydra_forward, hydra_loss, hydra_loss_replicated, load_model,
                        predict, save_model)
from .trainer import (LearningCurvePoint, TrainConfig, TrainHistory, TrainingDiverged,
                      infer, learning_curve_experiment, stratified_subsample, train)

__version__ = "0.1.0"
