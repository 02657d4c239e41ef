(** The §7 left-to-right merging heuristic.

    Input: marked sample sequences [(w, i)] (the target object is the
    symbol at position [i], the same symbol in every sample).  Output:
    an initial extraction expression that parses every sample and marks
    the right occurrence — the raw material the maximization algorithms
    then generalize.

    Construction (following §7): align the pre-mark prefixes on a common
    subsequence of tags; each maximal run between two common tags becomes
    the {e union} of the corresponding gap segments across samples (with
    [?] when some sample's gap is empty); the post-mark suffixes are
    generalized to Σ* by default (that is what expression (10) does), or
    merged symmetrically with [~generalize_suffix:false]. *)

type sample = { word : Word.t; mark_pos : int }

val sample : Word.t -> int -> sample
(** @raise Invalid_argument if the position is out of range. *)

type error =
  | No_samples
  | Mark_symbol_differs  (** samples mark different alphabet symbols *)

val pp_error : Format.formatter -> error -> unit

val merge :
  ?generalize_suffix:bool ->
  Alphabet.t ->
  sample list ->
  (Extraction.t, error) result
(** The merged expression.  Guarantees: every sample word is parsed and
    its marked position is among the splits (exactness of the marked
    position for {e unambiguous} results is checked by the caller via
    {!Ambiguity}). *)

val template_decomposition :
  Alphabet.t -> sample list -> (Pivot.decomposition * int, error) result
(** The merged prefix as an explicit pivot decomposition (segments =
    gap unions, pivots = common tags) together with the marked symbol —
    ready for {!Pivot.maximize_lang}. *)
