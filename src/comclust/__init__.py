"""Deep clustering for binary classification under heavy class imbalance.

Discriminative embeddings are trained with a center-oriented margin-free
triplet loss, either supervised (labeled triplets) or unsupervised (GMM
pseudo-labels); inference assigns the class of the nearest cluster
prototype. A weighted-cross-entropy classifier baseline and an
imbalance-sweep benchmark harness round out the package.
"""

from .autodiff import Var, backward, cosine_distance, make_rng
from .dataio import BlobSpec, LabeledDataset, load_csv, save_csv, split_dataset, synth_imbalanced
from .encoder import AdamConfig, EncoderConfig, ParamStore, adam_step
from .gmm import GaussianMixture, fit_em, kmeans, responsibilities
from .losses import (ClassWeights, com_adaptive_margin, com_dist_wa,
                     com_triplet_loss, triplet_loss, udc_com_loss,
                     weighted_cross_entropy)
from .metrics import confusion, roc_auc, weighted_metrics
from .prototypes import (Prototypes, batch_centers, infer_label,
                         malignancy_score, update_prototypes)
from .training import (TrainConfig, TrainLog, best_permutation_accuracy,
                       evaluate_classifier, evaluate_prototypes,
                       sample_triplets, train_classifier, train_sdc, train_udc)

__version__ = "0.1.0"
