(** Automatic window placement.

    The paper's refined rule (from its discussion section): place the
    new window's tag "immediately below the lowest visible text already
    in the column"; if too little of the window would be visible, cover
    half of the lowest window; failing that, take the bottom 25% of the
    column.  The alternative strategies exist for the placement
    ablation (experiment E5). *)

type strategy =
  | Refined  (** the paper's rule *)
  | Naive_top  (** always at the top, pushing the column down *)
  | Cover_half  (** always cover half of the lowest window *)
  | Bottom_quarter  (** always the bottom 25% of the column *)

val strategy_name : strategy -> string

(** Choose the tag row for a new window in [col] on a screen of height
    [h]. *)
val choose : strategy -> Hcol.t -> h:int -> int
