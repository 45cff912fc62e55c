(* Mail: mbox parsing/rendering and the mailtool commands behind the
   /help/mail scripts. *)

let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec f i = i + n <= m && (String.sub hay i n = needle || f (i + 1)) in
  n = 0 || f 0

let sample =
  "From alice Tue Apr 16 10:00:00 EDT 1991\n\
   Subject: hello\n\n\
   first message body\n\n\
   From bob Tue Apr 16 11:00:00 EDT 1991\n\n\
   second message body\nwith two lines\n"

let parse_tests =
  [
    Alcotest.test_case "splits on From lines" `Quick (fun () ->
        let msgs = Mail.parse_mbox sample in
        check_int "two messages" 2 (List.length msgs);
        match msgs with
        | [ a; b ] ->
            check_str "from a" "alice" a.Mail.m_from;
            check_str "from b" "bob" b.Mail.m_from;
            Alcotest.(check (option string)) "subject a" (Some "hello") a.Mail.m_subject;
            Alcotest.(check (option string)) "subject b" None b.Mail.m_subject;
            check_bool "body a" true (contains a.Mail.m_body "first message");
            check_bool "body b" true (contains b.Mail.m_body "with two lines")
        | _ -> Alcotest.fail "wrong count");
    Alcotest.test_case "empty mbox" `Quick (fun () ->
        check_int "none" 0 (List.length (Mail.parse_mbox "")));
    Alcotest.test_case "render/parse roundtrip preserves structure" `Quick
      (fun () ->
        let msgs = Mail.parse_mbox sample in
        let again = Mail.parse_mbox (Mail.render_mbox msgs) in
        check_int "count" (List.length msgs) (List.length again);
        List.iter2
          (fun a b ->
            check_str "from" a.Mail.m_from b.Mail.m_from;
            check_str "date" a.Mail.m_date b.Mail.m_date;
            Alcotest.(check (option string)) "subject" a.Mail.m_subject b.Mail.m_subject)
          msgs again);
    Alcotest.test_case "headers format is the paper's" `Quick (fun () ->
        let h = Mail.headers (Mail.parse_mbox sample) in
        check_bool "numbered, short date" true
          (contains h "1 alice Tue Apr 16 10:00 EDT"
          && contains h "2 bob Tue Apr 16 11:00 EDT"));
    Alcotest.test_case "corpus mailbox parses to seven messages" `Quick (fun () ->
        let ns = Vfs.create () in
        Corpus.install ns;
        let msgs = Mail.parse_mbox (Vfs.read_file ns Corpus.mbox_path) in
        check_int "seven" 7 (List.length msgs);
        check_str "second is sean" "sean" (List.nth msgs 1).Mail.m_from);
  ]

let fresh () =
  let ns = Vfs.create () in
  Corpus.install ns;
  let sh = Rc.create ns in
  Coreutils.install sh;
  Mail.install sh;
  (ns, sh)

let tool_tests =
  [
    Alcotest.test_case "mailtool headers" `Quick (fun () ->
        let _, sh = fresh () in
        let r = Rc.run sh "mailtool headers" in
        check_int "status" 0 r.Rc.r_status;
        check_bool "sean listed" true (contains r.Rc.r_out "2 sean"));
    Alcotest.test_case "mailtool print" `Quick (fun () ->
        let _, sh = fresh () in
        let r = Rc.run sh "mailtool print 2" in
        check_bool "crash report" true (contains r.Rc.r_out "TLB miss"));
    Alcotest.test_case "mailtool from" `Quick (fun () ->
        let _, sh = fresh () in
        check_str "sender" "sean\n" (Rc.run sh "mailtool from 2").Rc.r_out);
    Alcotest.test_case "mailtool delete rewrites the mbox" `Quick (fun () ->
        let _, sh = fresh () in
        let _ = Rc.run sh "mailtool delete 2" in
        let r = Rc.run sh "mailtool headers" in
        check_bool "sean gone" false (contains r.Rc.r_out "sean");
        check_bool "six remain" true (contains r.Rc.r_out "6 "));
    Alcotest.test_case "out-of-range message errors" `Quick (fun () ->
        let _, sh = fresh () in
        check_bool "fails" true ((Rc.run sh "mailtool print 99").Rc.r_status <> 0));
    Alcotest.test_case "send queues when recipient has no box" `Quick (fun () ->
        let ns, sh = fresh () in
        let r = Rc.run sh "echo 'the bug is fixed' | mailtool send sean" in
        check_int "status" 0 r.Rc.r_status;
        check_bool "queued" true (contains (Vfs.read_file ns "/mail/queue") "fixed"));
    Alcotest.test_case "send delivers to an existing box" `Quick (fun () ->
        let ns, sh = fresh () in
        Vfs.mkdir_p ns "/mail/box/sean";
        Vfs.write_file ns "/mail/box/sean/mbox" "";
        let _ = Rc.run sh "echo fixed | mailtool send sean" in
        check_bool "delivered" true
          (contains (Vfs.read_file ns "/mail/box/sean/mbox") "fixed"));
    Alcotest.test_case "alternate mailbox via $mail" `Quick (fun () ->
        let ns, sh = fresh () in
        Vfs.mkdir_p ns "/mail/box/other";
        Vfs.write_file ns "/mail/box/other/mbox"
          "From carol Tue Apr 16 12:00:00 EDT 1991\n\nhi\n";
        let r = Rc.run sh "mail=/mail/box/other/mbox mailtool headers" in
        check_bool "carol" true (contains r.Rc.r_out "carol"));
  ]

(* property: arbitrary well-formed messages survive render/parse *)
let word_gen =
  QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 97 122)) (int_range 1 12))

let message_gen =
  QCheck.Gen.(
    map3
      (fun from subject body_words ->
        {
          Mail.m_from = from;
          m_date = "Tue Apr 16 12:00:00 EDT 1991";
          m_subject = subject;
          m_body = String.concat " " body_words ^ "\n";
        })
      word_gen
      (opt word_gen)
      (list_size (int_range 1 20) word_gen))

let prop_roundtrip =
  QCheck.Test.make ~name:"render/parse round-trips any mailbox" ~count:200
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 0 8) message_gen))
    (fun msgs ->
      let again = Mail.parse_mbox (Mail.render_mbox msgs) in
      List.length again = List.length msgs
      && List.for_all2
           (fun a b ->
             a.Mail.m_from = b.Mail.m_from
             && a.Mail.m_subject = b.Mail.m_subject
             && String.trim a.Mail.m_body = String.trim b.Mail.m_body)
           msgs again)

let () =
  Alcotest.run "mail"
    [
      ("mbox", parse_tests);
      ("tools", tool_tests);
      ("property", [ Seeded.to_alcotest 23 prop_roundtrip ]);
    ]
